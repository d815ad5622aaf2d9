(* SHA-256 per FIPS 180-4.

   Word arithmetic is done on the native [int] (63-bit on 64-bit hosts)
   masked to 32 bits, rather than on boxed [Int32]: the compression loop is
   the hot path of every MAC and PRF call in the simulator, and native ints
   keep it allocation-free.  Sums of up to five 32-bit terms stay below
   2^35, so a single mask per assignment suffices.  Message length is
   tracked in bytes as Int64. *)

let digest_size = 32
let block_size = 64
let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
     0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
     0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
     0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
     0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
     0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
     0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
     0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
     0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

let initial_h () =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

type ctx = {
  h : int array;
  buf : Bytes.t; (* one block *)
  mutable buf_len : int;
  mutable total_bytes : int64;
  w : int array; (* message schedule scratch *)
}

let init () =
  { h = initial_h (); buf = Bytes.create block_size; buf_len = 0; total_bytes = 0L;
    w = Array.make 64 0 }

let copy ctx =
  (* [w] is per-block scratch, fully rewritten before every read inside one
     [compress] call, so sharing it between a context and its copies is
     safe within a domain — and keeps midstate replay (the per-MAC path of
     {!Hmac}) allocation-light.  Across domains it is not: a context that
     several domains replay (a shared {!Hmac.key}) must go through
     [copy_into], whose destination keeps its own [w]. *)
  { h = Array.copy ctx.h; buf = Bytes.copy ctx.buf; buf_len = ctx.buf_len;
    total_bytes = ctx.total_bytes; w = ctx.w }

let copy_into src ~into =
  (* Overwrite [into] with a snapshot of [src] without allocating: the
     batch MAC path replays one midstate thousands of times per epoch and
     reuses a single scratch context for all of them.  [into] keeps its own
     [w] (per-block scratch, rewritten before every read). *)
  Array.blit src.h 0 into.h 0 8;
  if src.buf_len > 0 then Bytes.blit src.buf 0 into.buf 0 src.buf_len;
  into.buf_len <- src.buf_len;
  into.total_bytes <- src.total_bytes

let[@inline] rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

let[@inline] big_sigma0 x = rotr x 2 lxor rotr x 13 lxor rotr x 22
let[@inline] big_sigma1 x = rotr x 6 lxor rotr x 11 lxor rotr x 25
let[@inline] small_sigma0 x = rotr x 7 lxor rotr x 18 lxor (x lsr 3)
let[@inline] small_sigma1 x = rotr x 17 lxor rotr x 19 lxor (x lsr 10)

(* Equivalent minimal-operation forms of the FIPS boolean functions:
   ch = (e & f) ^ (~e & g), maj = (a & b) ^ (a & c) ^ (b & c). *)
let[@inline] ch e f g = g lxor (e land (f lxor g))
let[@inline] maj a b c = a land b lor (c land (a lor b))

let compress ctx block pos =
  (* The innermost loops of every hash/MAC/PRF call: indices are bounded by
     construction (w and k have 64 entries, h has 8), so unchecked accesses
     are safe and measurably faster. *)
  let w = ctx.w in
  for i = 0 to 15 do
    Array.unsafe_set w i (Int32.to_int (Bytes.get_int32_be block (pos + (i * 4))) land mask32)
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      ((small_sigma1 (Array.unsafe_get w (i - 2))
        + Array.unsafe_get w (i - 7)
        + small_sigma0 (Array.unsafe_get w (i - 15))
        + Array.unsafe_get w (i - 16))
      land mask32)
  done;
  let h = ctx.h in
  (* Tail recursion keeps the eight state words in registers: no per-round
     stores, where the ref-based formulation paid eight. *)
  let rec rounds i a b c d e f g hh =
    if i = 64 then begin
      h.(0) <- (h.(0) + a) land mask32;
      h.(1) <- (h.(1) + b) land mask32;
      h.(2) <- (h.(2) + c) land mask32;
      h.(3) <- (h.(3) + d) land mask32;
      h.(4) <- (h.(4) + e) land mask32;
      h.(5) <- (h.(5) + f) land mask32;
      h.(6) <- (h.(6) + g) land mask32;
      h.(7) <- (h.(7) + hh) land mask32
    end
    else begin
      let t1 = hh + big_sigma1 e + ch e f g + Array.unsafe_get k i + Array.unsafe_get w i in
      let t2 = big_sigma0 a + maj a b c in
      rounds (i + 1) ((t1 + t2) land mask32) a b c ((d + t1) land mask32) e f g
    end
  in
  rounds 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let update_bytes ctx src ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= Bytes.length src);
  ctx.total_bytes <- Int64.add ctx.total_bytes (Int64.of_int len);
  let remaining = ref len and offset = ref pos in
  (* Fill a partial buffered block first. *)
  if ctx.buf_len > 0 then begin
    let take = min !remaining (block_size - ctx.buf_len) in
    Bytes.blit src !offset ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    offset := !offset + take;
    remaining := !remaining - take;
    if ctx.buf_len = block_size then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= block_size do
    compress ctx src !offset;
    offset := !offset + block_size;
    remaining := !remaining - block_size
  done;
  if !remaining > 0 then begin
    Bytes.blit src !offset ctx.buf ctx.buf_len !remaining;
    ctx.buf_len <- ctx.buf_len + !remaining
  end

let feed_string ctx s ~off ~len =
  update_bytes ctx (Bytes.unsafe_of_string s) ~pos:off ~len

let update ctx s = feed_string ctx s ~off:0 ~len:(String.length s)

let finalize_into ctx out ~pos =
  let bit_len = Int64.mul ctx.total_bytes 8L in
  (* Padding: 0x80, zeros, 8-byte big-endian bit length. *)
  let pad_len =
    let rem = (ctx.buf_len + 1 + 8) mod block_size in
    if rem = 0 then 1 else 1 + (block_size - rem)
  in
  let tail = Bytes.make (pad_len + 8) '\000' in
  Bytes.set tail 0 '\x80';
  Bytes.set_int64_be tail pad_len bit_len;
  (* Bypass update's length accounting: the padding is not message data. *)
  let remaining = ref (Bytes.length tail) and offset = ref 0 in
  if ctx.buf_len > 0 then begin
    let take = min !remaining (block_size - ctx.buf_len) in
    Bytes.blit tail !offset ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    offset := !offset + take;
    remaining := !remaining - take;
    if ctx.buf_len = block_size then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while !remaining >= block_size do
    compress ctx tail !offset;
    offset := !offset + block_size;
    remaining := !remaining - block_size
  done;
  assert (!remaining = 0 && ctx.buf_len = 0);
  for i = 0 to 7 do
    Bytes.set_int32_be out (pos + (i * 4)) (Int32.of_int ctx.h.(i))
  done

let finalize ctx =
  let out = Bytes.create digest_size in
  finalize_into ctx out ~pos:0;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let hex_of raw =
  let b = Buffer.create (2 * String.length raw) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) raw;
  Buffer.contents b

let digest_hex s = hex_of (digest s)
