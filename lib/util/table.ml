type align = Left | Right

type row = Cells of string array | Separator

type t = {
  title : string;
  headers : string array;
  aligns : align array;
  mutable rows : row list; (* reversed *)
}

let create ~title headers =
  let headers_arr = Array.of_list (List.map fst headers) in
  let aligns = Array.of_list (List.map snd headers) in
  { title; headers = headers_arr; aligns; rows = [] }

let add_row t cells =
  let cells = Array.of_list cells in
  if Array.length cells <> Array.length t.headers then
    invalid_arg "Table.add_row: cell count mismatch";
  t.rows <- Cells cells :: t.rows

let add_separator t = t.rows <- Separator :: t.rows

let column_widths t =
  let widths = Array.map String.length t.headers in
  List.iter
    (function
      | Separator -> ()
      | Cells cells ->
          Array.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells)
    t.rows;
  widths

let pad align width s =
  let gap = width - String.length s in
  if gap <= 0 then s
  else
    match align with
    | Left -> s ^ String.make gap ' '
    | Right -> String.make gap ' ' ^ s

let render t =
  let widths = column_widths t in
  let buf = Buffer.create 1024 in
  let rule ch =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) ch);
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let line cells align_of =
    Buffer.add_char buf '|';
    Array.iteri
      (fun i c ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (pad (align_of i) widths.(i) c);
        Buffer.add_string buf " |")
      cells;
    Buffer.add_char buf '\n'
  in
  if t.title <> "" then begin
    Buffer.add_string buf t.title;
    Buffer.add_char buf '\n'
  end;
  rule '-';
  line t.headers (fun _ -> Left);
  rule '=';
  List.iter
    (function
      | Separator -> rule '-'
      | Cells cells -> line cells (fun i -> t.aligns.(i)))
    (List.rev t.rows);
  rule '-';
  Buffer.contents buf

let print t = print_string (render t)

let cell_int = string_of_int

let cell_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let cell_pct x = Printf.sprintf "%.2f%%" x

let cell_opt f = function None -> "-" | Some x -> f x
