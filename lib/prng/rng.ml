type t = { engine : Xoshiro.t; base : int64 }

let create seed = { engine = Xoshiro.create seed; base = seed }

let bits64 t = Xoshiro.next t.engine

let split t =
  let seed = Splitmix64.mix (bits64 t) in
  { engine = Xoshiro.create seed; base = seed }

let split_at t label =
  let seed = Splitmix64.mix (Int64.logxor t.base (Splitmix64.mix (Int64.of_int label))) in
  { engine = Xoshiro.create seed; base = seed }

let copy t = { engine = Xoshiro.copy t.engine; base = t.base }

(* Allocation-free rejection draw over the unboxed engine.  The drawn value
   v = bits64 >>> 1 is 63 bits — one more than a native int can hold — so it
   is handled as halves: v = hi * 2^31 + lo31 with hi = out_hi (32 bits) and
   lo31 = out_lo >> 1 (31 bits).  With R = 2^63 - 1 and r63 = R mod bound,
   limit = R - r63 always has high half 0xFFFFFFFF (r63 < 2^31), so
   v < limit iff hi <> 0xFFFFFFFF || lo31 < 2^31 - 1 - r63; and
   v mod bound = ((hi mod bound) * (2^31 mod bound) + lo31) mod bound, whose
   intermediate product stays under 2^61 for bound < 2^30.  Bit-identical to
   the Int64 fallback below (tested against it in test_prng.ml). *)
let rec draw_fast engine bound p31 limit_lo =
  Xoshiro.step engine;
  let hi = Xoshiro.out_hi engine in
  let lo31 = Xoshiro.out_lo engine lsr 1 in
  if hi <> 0xFFFFFFFF || lo31 < limit_lo then ((hi mod bound) * p31 + lo31) mod bound
  else draw_fast engine bound p31 limit_lo

(* Power-of-two bounds: R mod bound = bound - 1, so the rejection limit is
   0x80000000 - bound, and since bound divides 2^31, v mod bound is just
   the low bits of lo31.  Same stream, same values, no division. *)
let rec draw_pow2 engine mask limit_lo =
  Xoshiro.step engine;
  let hi = Xoshiro.out_hi engine in
  let lo31 = Xoshiro.out_lo engine lsr 1 in
  if hi <> 0xFFFFFFFF || lo31 < limit_lo then lo31 land mask
  else draw_pow2 engine mask limit_lo

let int t bound =
  assert (bound > 0);
  if bound land (bound - 1) = 0 && bound <= 0x40000000 then
    draw_pow2 t.engine (bound - 1) (0x80000000 - bound)
  else if bound <= 0x3FFFFFFF then begin
    (* R mod bound, with R = 2^63 - 1 = 2 * max_int + 1 (63-bit R itself
       does not fit a native int). *)
    let r63 = ((2 * (max_int mod bound)) + 1) mod bound in
    draw_fast t.engine bound (0x80000000 mod bound) (0x7FFFFFFF - r63)
  end
  else begin
    let bound64 = Int64.of_int bound in
    (* Rejection over the top 63 bits keeps the draw exactly uniform. *)
    let range = Int64.max_int in
    let limit = Int64.sub range (Int64.rem range bound64) in
    let rec draw () =
      let v = Int64.shift_right_logical (bits64 t) 1 in
      if v < limit then Int64.to_int (Int64.rem v bound64) else draw ()
    in
    draw ()
  end

let int_in t lo hi =
  assert (lo <= hi);
  lo + int t (hi - lo + 1)

let bool t =
  Xoshiro.step t.engine;
  Xoshiro.out_lo t.engine land 1 = 1

let float t =
  (* 53 uniform bits mapped to [0,1). *)
  Xoshiro.step t.engine;
  let v = (Xoshiro.out_hi t.engine lsl 21) lor (Xoshiro.out_lo t.engine lsr 11) in
  float_of_int v /. 9007199254740992.0

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let pick_list t xs =
  match xs with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth xs (int t (List.length xs))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let sample_without_replacement t k xs =
  let arr = Array.of_list xs in
  assert (k <= Array.length arr);
  shuffle t arr;
  Array.to_list (Array.sub arr 0 k)
