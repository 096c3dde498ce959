open Reseed_util

type t = { seed : Word.t; operand : Word.t; cycles : int }

let make ~seed ~operand ~cycles =
  if Word.width seed <> Word.width operand then
    invalid_arg "Triplet.make: seed/operand width mismatch";
  if cycles < 1 then invalid_arg "Triplet.make: cycles must be >= 1";
  { seed; operand; cycles }

let patterns tpg t = Tpg.run tpg ~seed:t.seed ~operand:t.operand ~cycles:t.cycles

let truncate t cycles =
  if cycles < 1 || cycles > t.cycles then invalid_arg "Triplet.truncate: bad cycle count";
  { t with cycles }

let storage_bits t =
  (* A T-cycle burst needs a counter with T distinct states, i.e.
     ceil(log2 T) bits — floor(log2 T) + 1 overcounts by one whenever T
     is a power of two.  At least one bit even for T = 1. *)
  let counter_bits =
    let rec go n acc = if n <= 1 then acc else go ((n + 1) / 2) (acc + 1) in
    max 1 (go t.cycles 0)
  in
  Word.width t.seed + Word.width t.operand + counter_bits

let equal a b = Word.equal a.seed b.seed && Word.equal a.operand b.operand && a.cycles = b.cycles

let pp ppf t =
  Format.fprintf ppf "(δ=%a, σ=%a, T=%d)" Word.pp t.seed Word.pp t.operand t.cycles
