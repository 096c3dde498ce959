(** GATSBY-style genetic reseeding baseline ([7][8] in the paper).

    GATSBY computes reseedings one at a time: a GA searches for the
    triplet [(δ, σ)] (evolution length fixed) that maximises the number
    of still-undetected faults caught by its burst; the winner is
    committed, its detections are dropped, and the search repeats until
    the target coverage is reached or the GA stalls.  Because every
    fitness evaluation is a fault simulation of a whole burst, the method
    is simulation-bound — the cost the paper's set covering approach
    eliminates.  No global minimisation is attempted, which is why it
    needs more triplets than the covering formulation. *)

open Reseed_fault
open Reseed_tpg
open Reseed_util

type config = {
  cycles : int;  (** evolution length T per triplet *)
  ga : Ga.config;
  max_rounds : int;  (** hard cap on GA rounds *)
}

val default_config : config

type result = {
  triplets : Triplet.t list;  (** committed reseedings, in order *)
  detected : Bitvec.t;  (** faults covered over the target list *)
  test_length : int;  (** Σ effective (truncated) burst lengths *)
  fault_sims : int;  (** total injections — the paper's cost metric *)
  ga_evaluations : int;
  stopped_early : bool;
      (** the [budget] expired: [triplets] holds the reseedings committed
          so far, still sound against [detected] *)
}

(** [run ?config ?pool ?budget sim tpg ~rng ~targets] hunts triplets until
    [targets] is covered, [max_rounds] GA rounds have run, or three GA
    rounds in a row find no burst that detects a live fault.  [targets]
    restricts the fault universe, mirroring the paper's "faults not
    covered by the other triplets" accounting.  Each committed burst is
    truncated by {!Fault_sim.useful_length}, the rule the covering flow
    applies to its selected triplets.  GA fitness evaluations
    (burst fault simulations) run in parallel over [pool] (default:
    {!Pool.default}) on per-worker simulator shards; the GA's RNG stays
    on the calling domain, so the search is bit-identical at every job
    count.  [budget] is polled between GA generations and between rounds:
    on expiry the triplets committed so far are returned with
    [stopped_early] set. *)
val run :
  ?config:config ->
  ?pool:Pool.t ->
  ?budget:Budget.t ->
  Fault_sim.t ->
  Tpg.t ->
  rng:Rng.t ->
  targets:Bitvec.t ->
  result
