open Reseed_setcover
open Reseed_util

type block = { value : int; care : int }

type corpus = { width : int; blocks : block array }

let check_width width =
  if width < 1 || width > 62 then
    invalid_arg "Workload: block width must be within 1-62"

(* Chop one vector (as a bit producer) into width-sized blocks; the tail
   block is padded with don't-cares. *)
let chop ~width ~len bit_at acc =
  let i = ref 0 in
  while !i < len do
    let value = ref 0 and care = ref 0 in
    for j = 0 to width - 1 do
      let k = !i + j in
      if k < len then begin
        care := !care lor (1 lsl j);
        match bit_at k with
        | Some true -> value := !value lor (1 lsl j)
        | Some false -> ()
        | None -> care := !care land lnot (1 lsl j)
      end
    done;
    acc := { value = !value land !care; care = !care } :: !acc;
    i := !i + width
  done

let corpus_of_text ?file ~width s =
  check_width width;
  let acc = ref [] in
  let lines = String.split_on_char '\n' s in
  List.iteri
    (fun i raw ->
      let line = String.trim raw in
      if line <> "" && line.[0] <> '#' then begin
        String.iteri
          (fun col c ->
            match c with
            | '0' | '1' | 'X' | 'x' -> ()
            | _ ->
                Error.fail ?file ~line:(i + 1) ~column:(col + 1)
                  Error.Input_error
                  "corpus vector must be over [01X], got %C" c)
          line;
        chop ~width ~len:(String.length line)
          (fun k ->
            match line.[k] with
            | '1' -> Some true
            | '0' -> Some false
            | _ -> None)
          acc
      end)
    lines;
  { width; blocks = Array.of_list (List.rev !acc) }

let corpus_of_patterns ~width tests =
  check_width width;
  let acc = ref [] in
  Array.iter
    (fun pattern ->
      chop ~width ~len:(Array.length pattern) (fun k -> Some pattern.(k)) acc)
    tests;
  { width; blocks = Array.of_list (List.rev !acc) }

let candidates corpus =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  Array.iter
    (fun b ->
      let e = b.value land b.care in
      if not (Hashtbl.mem seen e) then begin
        Hashtbl.add seen e ();
        out := e :: !out
      end)
    corpus.blocks;
  Array.of_list (List.rev !out)

let covers ~entry b = entry land b.care = b.value

let matrix corpus cands =
  let nb = Array.length corpus.blocks in
  let rows =
    Array.map
      (fun entry ->
        let row = Bitvec.create nb in
        Array.iteri
          (fun j b -> if covers ~entry b then Bitvec.set row j)
          corpus.blocks;
        row)
      cands
  in
  Matrix.of_rows ~cols:nb rows

let fingerprint corpus =
  let open Fingerprint in
  let h = salted "compress" in
  let h = string h "workload:compress" in
  let h = int h corpus.width in
  let h = int h (Array.length corpus.blocks) in
  Array.fold_left (fun h b -> int (int h b.value) b.care) h corpus.blocks

type compressed = {
  corpus_blocks : int;
  distinct_blocks : int;
  entries : int list;
  solution : Solution.t;
  dictionary_bits : int;
  index_bits : int;
  raw_bits : int;
}

let bits_for n =
  if n <= 1 then 0
  else begin
    let b = ref 0 and v = ref (n - 1) in
    while !v > 0 do
      incr b;
      v := !v lsr 1
    done;
    !b
  end

let distinct_count corpus =
  let seen = Hashtbl.create 64 in
  Array.iter (fun b -> Hashtbl.replace seen (b.value, b.care) ()) corpus.blocks;
  Hashtbl.length seen

let solve ?(method_ = Solution.Exact) ?budget ?store corpus =
  Trace.with_span "workload.compress"
    ~args:[ ("blocks", string_of_int (Array.length corpus.blocks)) ]
  @@ fun () ->
  let cands = candidates corpus in
  let m = matrix corpus cands in
  let compute () = (Solution.solve ~method_ ?budget m, None) in
  (* An empty corpus has nothing worth caching: it never touches the store. *)
  let solution, _ =
    match store with
    | Some st when Array.length corpus.blocks > 0 ->
        let config = { Flow.default_config with Flow.method_ } in
        let fp = Flow.cover_fingerprint config (fingerprint corpus) in
        Flow.cached_cover st ~fp m compute
    | _ -> compute ()
  in
  let entries = List.map (fun r -> cands.(r)) solution.Solution.rows in
  let nb = Array.length corpus.blocks in
  let ne = List.length entries in
  {
    corpus_blocks = nb;
    distinct_blocks = distinct_count corpus;
    entries;
    solution;
    dictionary_bits = ne * corpus.width;
    index_bits = nb * bits_for ne;
    raw_bits = nb * corpus.width;
  }

let entry_to_string ~width e =
  String.init width (fun j -> if e land (1 lsl j) <> 0 then '1' else '0')
