(* Bench-side layer timing.  The benchmark wraps each public entry point
   it calls in a [bench.<layer>] span and, while tracing, takes the
   allocation delta around it.  After the traced repetition the recorded
   spans (the bench's own and the library's) are reduced to self time:
   a span's duration minus the part of it covered by its direct
   children on the same domain. *)

open Reseed_util

let now () = Int64.to_float (Monotonic_clock.now ()) /. 1e9

(* Minor words allocated inside each bench layer, accumulated while
   tracing is on.  [Gc.quick_stat] reports the calling domain only, so
   work done on pool workers is not included. *)
let alloc_words : (string, float) Hashtbl.t = Hashtbl.create 8

let reset () = Hashtbl.reset alloc_words

let span layer f =
  if not (Trace.enabled ()) then f ()
  else begin
    let w0 = (Gc.quick_stat ()).Gc.minor_words in
    let r = Trace.with_span ("bench." ^ layer) f in
    let dw = (Gc.quick_stat ()).Gc.minor_words -. w0 in
    Hashtbl.replace alloc_words layer
      (dw +. Option.value (Hashtbl.find_opt alloc_words layer) ~default:0.);
    r
  end

let alloc_mw layer =
  Option.value (Hashtbl.find_opt alloc_words layer) ~default:0. /. 1e6

type span = { ev : Trace.event; self_ns : int64 }

let end_ns (e : Trace.event) = Int64.add e.ts_ns e.dur_ns

let encloses (p : Trace.event) (c : Trace.event) =
  p.ts_ns <= c.ts_ns && end_ns c <= end_ns p

(* Per domain, walk the spans in start order (an enclosing span before
   the spans it encloses) with a stack of open spans; each span's
   duration is charged to its innermost enclosing span. *)
let self_times (events : Trace.event list) =
  let xs = List.filter (fun (e : Trace.event) -> e.ph = 'X') events in
  let order (a : Trace.event) (b : Trace.event) =
    match compare a.tid b.tid with
    | 0 -> (
        match Int64.compare a.ts_ns b.ts_ns with
        | 0 -> Int64.compare b.dur_ns a.dur_ns
        | c -> c)
    | c -> c
  in
  let sorted = Array.of_list (List.stable_sort order xs) in
  let child = Array.make (Array.length sorted) 0L in
  let stack = ref [] in
  Array.iteri
    (fun i (e : Trace.event) ->
      let rec unwind () =
        match !stack with
        | j :: rest
          when sorted.(j).tid <> e.tid || not (encloses sorted.(j) e) ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | j :: _ -> child.(j) <- Int64.add child.(j) e.dur_ns
      | [] -> ());
      stack := i :: !stack)
    sorted;
  Array.to_list
    (Array.mapi
       (fun i ev -> { ev; self_ns = Int64.max 0L (Int64.sub ev.Trace.dur_ns child.(i)) })
       sorted)

let seconds ns = Int64.to_float ns /. 1e9

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* [self_s ~prefix spans] is the self time, in seconds, of every span
   whose name starts with [prefix], summed over all domains.  With
   [within], only spans starting inside one of those spans count. *)
let self_s ?within ~prefix spans =
  let inside (e : Trace.event) =
    match within with
    | None -> true
    | Some outer ->
        List.exists
          (fun o -> o.ev.Trace.ts_ns <= e.ts_ns && e.ts_ns < end_ns o.ev)
          outer
  in
  List.fold_left
    (fun acc s ->
      if has_prefix ~prefix s.ev.Trace.name && inside s.ev then
        acc +. seconds s.self_ns
      else acc)
    0. spans

(* [total_s ~name spans] is the summed duration of the spans named [name]. *)
let total_s ~name spans =
  List.fold_left
    (fun acc s -> if s.ev.Trace.name = name then acc +. seconds s.ev.Trace.dur_ns else acc)
    0. spans

let named ~name spans = List.filter (fun s -> s.ev.Trace.name = name) spans

(* [by_name spans] is [(name, (count, total_s, self_s))] per span name,
   sorted by descending self time. *)
let by_name spans =
  let h = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, t, st =
        Option.value (Hashtbl.find_opt h s.ev.Trace.name) ~default:(0, 0., 0.)
      in
      Hashtbl.replace h s.ev.Trace.name
        (n + 1, t +. seconds s.ev.Trace.dur_ns, st +. seconds s.self_ns))
    spans;
  List.sort
    (fun (_, (_, _, a)) (_, (_, _, b)) -> Float.compare b a)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
