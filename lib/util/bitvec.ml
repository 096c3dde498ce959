type t = { len : int; words : int array }

let bits_per_word = 62

(* All 62 payload bits of a word; equals [max_int] on 64-bit platforms. *)
let full_mask = max_int

let nwords len = if len = 0 then 0 else (len + bits_per_word - 1) / bits_per_word

(* Mask selecting the valid bits of the last word. *)
let tail_mask len =
  let r = len mod bits_per_word in
  if r = 0 then full_mask else (1 lsl r) - 1

let create len =
  if len < 0 then invalid_arg "Bitvec.create: negative length";
  { len; words = Array.make (nwords len) 0 }

let length v = v.len

let copy v = { len = v.len; words = Array.copy v.words }

let blit ~src ~dst =
  if src.len <> dst.len then invalid_arg "Bitvec: length mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Bitvec: index out of range"

let get v i =
  check v i;
  v.words.(i / bits_per_word) lsr (i mod bits_per_word) land 1 = 1

let set v i =
  check v i;
  let w = i / bits_per_word in
  v.words.(w) <- v.words.(w) lor (1 lsl (i mod bits_per_word))

let clear v i =
  check v i;
  let w = i / bits_per_word in
  v.words.(w) <- v.words.(w) land lnot (1 lsl (i mod bits_per_word))

let assign v i b = if b then set v i else clear v i

let fill_all v =
  let n = Array.length v.words in
  if n > 0 then begin
    Array.fill v.words 0 n full_mask;
    v.words.(n - 1) <- tail_mask v.len
  end

let zero_all v = Array.fill v.words 0 (Array.length v.words) 0

(* Parallel-sum popcount on the 62 payload bits of a native int. *)
let popcount_int x =
  let m1 = 0x1555555555555555 (* even bit positions 0..60 *)
  and m2 = 0x3333333333333333 (* two-bit fields, covering bits 0..61 *)
  and m4 = 0x0f0f0f0f0f0f0f0f in
  let x = x - ((x lsr 1) land m1) in
  let x = (x land m2) + ((x lsr 2) land m2) in
  let x = (x + (x lsr 4)) land m4 in
  (x * 0x0101010101010101) lsr 56 land 0x7f

let count v = Array.fold_left (fun acc w -> acc + popcount_int w) 0 v.words

let is_empty v = Array.for_all (fun w -> w = 0) v.words

let equal a b = a.len = b.len && a.words = b.words

let compare a b =
  let c = Stdlib.compare a.len b.len in
  if c <> 0 then c else Stdlib.compare a.words b.words

let same_len a b =
  if a.len <> b.len then invalid_arg "Bitvec: length mismatch"

let union_into ~into src =
  same_len into src;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) lor src.words.(i)
  done

let inter_into ~into src =
  same_len into src;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land src.words.(i)
  done

let diff_into ~into src =
  same_len into src;
  for i = 0 to Array.length into.words - 1 do
    into.words.(i) <- into.words.(i) land lnot src.words.(i)
  done

let union a b = let r = copy a in union_into ~into:r b; r
let inter a b = let r = copy a in inter_into ~into:r b; r
let diff a b = let r = copy a in diff_into ~into:r b; r

let subset a b =
  same_len a b;
  let ok = ref true in
  let i = ref 0 in
  let n = Array.length a.words in
  while !ok && !i < n do
    if a.words.(!i) land lnot b.words.(!i) <> 0 then ok := false;
    incr i
  done;
  !ok

let subset_masked a b ~mask =
  same_len a b;
  same_len a mask;
  let ok = ref true in
  let i = ref 0 in
  let n = Array.length a.words in
  while !ok && !i < n do
    if a.words.(!i) land mask.words.(!i) land lnot b.words.(!i) <> 0 then ok := false;
    incr i
  done;
  !ok

let intersects a b =
  same_len a b;
  let hit = ref false in
  let i = ref 0 in
  let n = Array.length a.words in
  while (not !hit) && !i < n do
    if a.words.(!i) land b.words.(!i) <> 0 then hit := true;
    incr i
  done;
  !hit

let count_inter a b =
  same_len a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_int (a.words.(i) land b.words.(i))
  done;
  !acc

let count_diff a b =
  same_len a b;
  let acc = ref 0 in
  for i = 0 to Array.length a.words - 1 do
    acc := !acc + popcount_int (a.words.(i) land lnot b.words.(i))
  done;
  !acc

(* [2] has order 66 modulo the prime 67, so [(1 lsl k) mod 67] is distinct
   for every payload bit [k]: isolating the lowest set bit and reducing it
   modulo 67 indexes this table in O(1), whatever the bit's position. *)
let bit_index =
  let t = Array.make 67 0 in
  for k = 0 to bits_per_word - 1 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

let lowest_bit w = Array.unsafe_get bit_index ((w land -w) mod 67)

let iter_ones f v =
  let words = v.words in
  for wi = 0 to Array.length words - 1 do
    let w = ref (Array.unsafe_get words wi) in
    let base = wi * bits_per_word in
    while !w <> 0 do
      f (base + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

let fold_ones f acc v =
  let acc = ref acc in
  iter_ones (fun i -> acc := f !acc i) v;
  !acc

(* A plain loop over the words, so the running sum stays an unboxed
   local: no closure and no boxed float per set bit.  Inlined into
   [sum_at_into], whose caller gets the sum through a flat float array
   and so without a box even across a module boundary. *)
let[@inline] sum_at v a =
  let acc = ref 0. in
  let words = v.words in
  for wi = 0 to Array.length words - 1 do
    let w = ref (Array.unsafe_get words wi) in
    let base = wi * bits_per_word in
    while !w <> 0 do
      acc := !acc +. a.(base + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done;
  !acc

let sum_at_into v a dst k = dst.(k) <- sum_at v a

let next_one v i =
  if i >= v.len then -1
  else begin
    let i = if i < 0 then 0 else i in
    let words = v.words in
    let n = Array.length words in
    let wi = ref (i / bits_per_word) in
    let w = ref (Array.unsafe_get words !wi land (-1 lsl (i mod bits_per_word))) in
    while !w = 0 && !wi < n - 1 do
      incr wi;
      w := Array.unsafe_get words !wi
    done;
    if !w = 0 then -1 else (!wi * bits_per_word) + lowest_bit !w
  end

let first_one v =
  let n = Array.length v.words in
  let rec scan wi =
    if wi >= n then None
    else
      let w = Array.unsafe_get v.words wi in
      if w = 0 then scan (wi + 1) else Some ((wi * bits_per_word) + lowest_bit w)
  in
  scan 0

(* FNV-1a style over the masked words (offset basis cut to 63 bits):
   vectors equal inside [mask] hash equal. *)
let hash_masked v ~mask =
  same_len v mask;
  let h = ref 0x4bf29ce484222325 in
  for i = 0 to Array.length v.words - 1 do
    h := (!h lxor (v.words.(i) land mask.words.(i))) * 0x100000001b3
  done;
  !h

let of_list n l =
  let v = create n in
  List.iter (fun i -> set v i) l;
  v

let to_list v = List.rev (fold_ones (fun acc i -> i :: acc) [] v)

(* 8 bits per byte, independent of the 62-bit packing, so the encoding is
   stable across any future change of the in-memory word layout.  Both
   directions move a whole byte at a time: byte [k] holds bits [8k ..
   8k+7], which start at bit [off] of word [w] and run on into word
   [w + 1] when [off > 54], since 62 is not a multiple of 8.  Bits at or
   above [len] are zero in every word, so no byte needs masking. *)
let to_bytes v =
  let nb = (v.len + 7) / 8 in
  let b = Bytes.create nb in
  let words = v.words in
  let nw = Array.length words in
  let w = ref 0 and off = ref 0 in
  for k = 0 to nb - 1 do
    let x = Array.unsafe_get words !w lsr !off in
    let x =
      if !off > bits_per_word - 8 && !w + 1 < nw then
        x lor (Array.unsafe_get words (!w + 1) lsl (bits_per_word - !off))
      else x
    in
    Bytes.unsafe_set b k (Char.unsafe_chr (x land 0xff));
    off := !off + 8;
    if !off >= bits_per_word then begin
      off := !off - bits_per_word;
      incr w
    end
  done;
  b

(* Decodes the [ceil (n / 8)] bytes of [s] at [pos], bounds already
   checked; [fn] names the caller in the padding error. *)
let unpack fn n s pos =
  let nb = (n + 7) / 8 in
  (* Padding bits beyond [n] must be zero: catches truncation/corruption
     that a length check alone would miss. *)
  if n mod 8 <> 0 && Char.code s.[pos + nb - 1] lsr (n mod 8) <> 0 then
    invalid_arg (fn ^ ": nonzero padding");
  let v = create n in
  let words = v.words in
  let nw = Array.length words in
  let w = ref 0 and off = ref 0 in
  for k = 0 to nb - 1 do
    let x = Char.code (String.unsafe_get s (pos + k)) in
    Array.unsafe_set words !w
      (Array.unsafe_get words !w lor ((x lsl !off) land full_mask));
    if !off > bits_per_word - 8 && !w + 1 < nw then
      Array.unsafe_set words (!w + 1) (x lsr (bits_per_word - !off));
    off := !off + 8;
    if !off >= bits_per_word then begin
      off := !off - bits_per_word;
      incr w
    end
  done;
  v

let of_bytes n b =
  if n < 0 then invalid_arg "Bitvec.of_bytes: negative length";
  if Bytes.length b <> (n + 7) / 8 then invalid_arg "Bitvec.of_bytes: size mismatch";
  unpack "Bitvec.of_bytes" n (Bytes.unsafe_to_string b) 0

let of_substring n s pos =
  if n < 0 then invalid_arg "Bitvec.of_substring: negative length";
  if pos < 0 || pos > String.length s - ((n + 7) / 8) then
    invalid_arg "Bitvec.of_substring: out of bounds";
  unpack "Bitvec.of_substring" n s pos

let pp ppf v =
  Format.fprintf ppf "{";
  let first = ref true in
  iter_ones
    (fun i ->
      if !first then first := false else Format.fprintf ppf ",";
      Format.fprintf ppf "%d" i)
    v;
  Format.fprintf ppf "}"

let unsafe_get v i =
  Array.unsafe_get v.words (i / bits_per_word) lsr (i mod bits_per_word) land 1 = 1

let unsafe_set v i =
  let w = i / bits_per_word in
  Array.unsafe_set v.words w
    (Array.unsafe_get v.words w lor (1 lsl (i mod bits_per_word)))
