open Reseed_util

type t = {
  name : string;
  width : int;
  step : state:Word.t -> operand:Word.t -> Word.t;
  fix_operand : Word.t -> Word.t;
}

let make ~name ~width ?(fix_operand = Fun.id) step =
  if width < 1 then invalid_arg "Tpg.make: width must be >= 1";
  { name; width; step; fix_operand }

let check_widths tpg seed operand =
  if Word.width seed <> tpg.width || Word.width operand <> tpg.width then
    invalid_arg "Tpg: seed/operand width mismatch"

let run tpg ~seed ~operand ~cycles =
  check_widths tpg seed operand;
  if cycles < 1 then invalid_arg "Tpg.run: cycles must be >= 1";
  let out = Array.make cycles seed in
  let state = ref seed in
  for j = 1 to cycles - 1 do
    state := tpg.step ~state:!state ~operand;
    out.(j) <- !state
  done;
  out

let period tpg ~seed ~operand ~limit =
  check_widths tpg seed operand;
  let seen = Hashtbl.create 64 in
  let rec go state step =
    if step > limit then None
    else if Hashtbl.mem seen state then Some step
    else begin
      Hashtbl.add seen state ();
      go (tpg.step ~state ~operand) (step + 1)
    end
  in
  go seed 0
