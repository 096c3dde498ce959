(* Minimal JSON values: enough to write result files and read them (and
   BENCHMARK.json) back for [compare].  Numbers are floats; integral
   values print without a fraction, others with the shortest decimal
   that reads back to the same float. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let num_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f
  else "null"

let escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

(* [indent < 0] prints on one line; so does an array of scalars. *)
let rec write b ~indent ~depth v =
  let scalar = function Arr _ | Obj _ -> false | _ -> true in
  let indent = match v with Arr xs when List.for_all scalar xs -> -1 | _ -> indent in
  let nl d =
    if indent >= 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (indent * d) ' ')
    end
  in
  let seq opn cls items f =
    Buffer.add_char b opn;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string b (if indent >= 0 then "," else ", ");
        nl (depth + 1);
        f x)
      items;
    if items <> [] then nl depth;
    Buffer.add_char b cls
  in
  match v with
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num f -> Buffer.add_string b (num_to_string f)
  | Str s ->
      Buffer.add_char b '"';
      escape b s;
      Buffer.add_char b '"'
  | Arr xs -> seq '[' ']' xs (write b ~indent ~depth:(depth + 1))
  | Obj kvs ->
      seq '{' '}' kvs (fun (k, x) ->
          Buffer.add_char b '"';
          escape b k;
          Buffer.add_string b "\": ";
          write b ~indent ~depth:(depth + 1) x)

let to_string ?(indent = -1) v =
  let b = Buffer.create 256 in
  write b ~indent ~depth:0 v;
  Buffer.contents b

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail what = raise (Parse_error (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec skip () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
        incr pos;
        skip ()
    | _ -> ()
  in
  let expect c =
    skip ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code =
                match int_of_string_opt ("0x" ^ String.sub s !pos 4) with
                | Some c when Uchar.is_valid c -> c
                | _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_utf_8_uchar b (Uchar.of_int code)
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    while
      !pos < n
      && match s.[!pos] with '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false
    do
      incr pos
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  let rec value () =
    skip ();
    match peek () with
    | '{' ->
        incr pos;
        skip ();
        if peek () = '}' then begin
          incr pos;
          Obj []
        end
        else
          let rec members acc =
            let k = string () in
            expect ':';
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                members ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr pos;
        skip ();
        if peek () = ']' then begin
          incr pos;
          Arr []
        end
        else
          let rec items acc =
            let v = value () in
            skip ();
            match peek () with
            | ',' ->
                incr pos;
                items (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          items []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> number ()
  in
  let v = value () in
  skip ();
  if !pos <> n then fail "trailing data";
  v

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None

let to_num = function Num f -> Some f | _ -> None
let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> xs | _ -> []

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () ->
      parse (really_input_string ic (in_channel_length ic)))

let write_file path v =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () ->
      output_string oc (to_string ~indent:2 v);
      output_char oc '\n')
