(* Little-endian limbs of [limb_bits] bits each.  30-bit limbs keep every
   partial product of [mul] within the 62 safe bits of a native int. *)

let limb_bits = 30
let limb_mask = (1 lsl limb_bits) - 1

type t = { width : int; limbs : int array }

let width w = w.width
let limb w k = w.limbs.(k)

let nlimbs width = (width + limb_bits - 1) / limb_bits

let top_mask width =
  let r = width mod limb_bits in
  if r = 0 then limb_mask else (1 lsl r) - 1

(* Canonicalise: clear bits above [width] in the top limb. *)
let normalize w =
  let n = Array.length w.limbs in
  if n > 0 then w.limbs.(n - 1) <- w.limbs.(n - 1) land top_mask w.width;
  w

let zero n =
  if n < 1 then invalid_arg "Word.zero: width must be >= 1";
  { width = n; limbs = Array.make (nlimbs n) 0 }

let of_int n x =
  if x < 0 then invalid_arg "Word.of_int: negative value";
  let w = zero n in
  let rec fill i x =
    if x <> 0 && i < Array.length w.limbs then begin
      w.limbs.(i) <- x land limb_mask;
      fill (i + 1) (x lsr limb_bits)
    end
  in
  fill 0 x;
  normalize w

let one n = of_int n 1
let ones n = let w = zero n in Array.fill w.limbs 0 (nlimbs n) limb_mask; normalize w

let to_int w =
  let n = Array.length w.limbs in
  let rec go i acc =
    if i < 0 then Some acc
    else if i * limb_bits >= 62 && w.limbs.(i) <> 0 then None
    else
      let shifted = acc lsl limb_bits in
      if shifted lsr limb_bits <> acc then None
      else go (i - 1) (shifted lor w.limbs.(i))
  in
  go (n - 1) 0

let get_bit w i =
  if i < 0 || i >= w.width then invalid_arg "Word.get_bit: out of range";
  w.limbs.(i / limb_bits) lsr (i mod limb_bits) land 1 = 1

let set_bit w i b =
  if i < 0 || i >= w.width then invalid_arg "Word.set_bit: out of range";
  let limbs = Array.copy w.limbs in
  let l = i / limb_bits and o = i mod limb_bits in
  limbs.(l) <- (if b then limbs.(l) lor (1 lsl o) else limbs.(l) land lnot (1 lsl o));
  { width = w.width; limbs }

let of_bits bits =
  let n = Array.length bits in
  if n = 0 then invalid_arg "Word.of_bits: empty";
  let w = zero n in
  Array.iteri
    (fun i b ->
      if b then
        w.limbs.(i / limb_bits) <- w.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits)))
    bits;
  w

let to_bits w = Array.init w.width (fun i -> get_bit w i)

let same_width a b =
  if a.width <> b.width then invalid_arg "Word: width mismatch"

let add a b =
  same_width a b;
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = a.limbs.(i) + b.limbs.(i) + !carry in
    limbs.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  normalize { width = a.width; limbs }

let lognot a =
  let limbs = Array.map (fun l -> lnot l land limb_mask) a.limbs in
  normalize { width = a.width; limbs }

let neg a = add (lognot a) (of_int a.width 1)

(* One pass with a borrow: a limb difference below zero wraps by
   [2^limb_bits], and its sign bit is the borrow into the next limb. *)
let sub a b =
  same_width a b;
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let d = a.limbs.(i) - b.limbs.(i) - !borrow in
    limbs.(i) <- d land limb_mask;
    borrow := (d asr limb_bits) land 1
  done;
  normalize { width = a.width; limbs }

let mul a b =
  same_width a b;
  let n = Array.length a.limbs in
  let limbs = Array.make n 0 in
  (* Schoolbook multiplication truncated to n limbs.  Partial sums are
     accumulated limb by limb with explicit carry propagation so that no
     intermediate exceeds 62 bits. *)
  for i = 0 to n - 1 do
    if a.limbs.(i) <> 0 then begin
      let carry = ref 0 in
      for j = 0 to n - 1 - i do
        let p = (a.limbs.(i) * b.limbs.(j)) + limbs.(i + j) + !carry in
        limbs.(i + j) <- p land limb_mask;
        carry := p lsr limb_bits
      done
    end
  done;
  normalize { width = a.width; limbs }

let map2 f a b =
  same_width a b;
  normalize
    { width = a.width; limbs = Array.init (Array.length a.limbs) (fun i -> f a.limbs.(i) b.limbs.(i)) }

let logxor a b = map2 ( lxor ) a b
let logand a b = map2 ( land ) a b
let logor a b = map2 ( lor ) a b

let shift_left a k =
  if k < 0 then invalid_arg "Word.shift_left: negative shift";
  if k = 0 then a
  else if k >= a.width then zero a.width
  else begin
    let r = zero a.width in
    for i = a.width - 1 downto k do
      if get_bit a (i - k) then
        r.limbs.(i / limb_bits) <- r.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
    done;
    normalize r
  end

let shift_right a k =
  if k < 0 then invalid_arg "Word.shift_right: negative shift";
  if k = 0 then a
  else if k >= a.width then zero a.width
  else begin
    let r = zero a.width in
    for i = 0 to a.width - 1 - k do
      if get_bit a (i + k) then
        r.limbs.(i / limb_bits) <- r.limbs.(i / limb_bits) lor (1 lsl (i mod limb_bits))
    done;
    normalize r
  end

let equal a b = a.width = b.width && a.limbs = b.limbs

let compare a b =
  let c = Stdlib.compare a.width b.width in
  if c <> 0 then c
  else
    (* Limbs are little-endian: compare from the most significant down. *)
    let rec go i =
      if i < 0 then 0
      else
        let c = Stdlib.compare a.limbs.(i) b.limbs.(i) in
        if c <> 0 then c else go (i - 1)
    in
    go (Array.length a.limbs - 1)

let is_zero a = Array.for_all (fun l -> l = 0) a.limbs

let popcount a = Array.fold_left (fun acc l -> acc + Bitvec.popcount_int l) 0 a.limbs

let random rng n =
  let w = zero n in
  for i = 0 to Array.length w.limbs - 1 do
    w.limbs.(i) <- Rng.bits rng limb_bits
  done;
  normalize w

let to_hex w =
  let digits = (w.width + 3) / 4 in
  let buf = Buffer.create (digits + 2) in
  Buffer.add_string buf "0x";
  for d = digits - 1 downto 0 do
    let v = ref 0 in
    for b = 3 downto 0 do
      let bit = (d * 4) + b in
      v := (!v lsl 1) lor (if bit < w.width && get_bit w bit then 1 else 0)
    done;
    Buffer.add_char buf "0123456789abcdef".[!v]
  done;
  Buffer.contents buf

let pp ppf w = Format.fprintf ppf "%s" (to_hex w)
