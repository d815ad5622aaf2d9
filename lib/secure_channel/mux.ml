(* Multiplexed secure-channel service (ROADMAP item 2).

   Thousands of logical channels share one simulated radio network.  Once
   per emulated round, the first fiber resumed runs [prepare]: it processes
   everything heard in the previous emulated round, runs the epoch /
   replay-window / backpressure state machines, and seals every frame the
   round will transmit.  Node fibers are thin actors — they read their slot
   plan from the shared state and move bytes.  [prepare] has two phases.
   The shard phase does the per-frame work that reads no mutable protocol
   state (build and seal; decode, judge the epoch, open, parse, check for
   forgery) over contiguous channel ranges, one per domain of the run's
   pool ([fan_out]).  The serial state phase applies the results in
   channel order: queues, acks, windows, latency and every counter.  Fibers
   resume in node-id order within the engine's domain, so that state needs
   no synchronization, and the output is the same for every pool size.

   Emulated-round layout (Acked transport): S data slots and a sync round —
   S+1 real rounds, S = max(ceil(logical / phys), 2).  Channels pair as
   duplex streams: node c sends on channel c and listens on channel
   [c lxor 1], and the cumulative ack for the opposite direction rides
   inside every sealed data frame (or a bare sealed ack carrier when the
   queue is empty).  Logical channel c occupies slot [c mod S] at position
   [c / S]; a PRF-keyed offset per (emulated round, slot) rotates the whole
   slot across the physical band, so co-scheduled channels never collide
   with each other while the adversary cannot predict where any one channel
   lands.  The sync round guarantees that every listen of the round has
   stored its result before the next [prepare] reads it.  One extra flush
   emulated round lets the final acks land.

   Repeat transport (the E9 broadcast shape): [group] members per logical
   channel; the designated sender repeats the sealed head frame [reps]
   times on a hopping channel while the rest listen — reps+1 real rounds
   per emulated round, no acks, the head is retired after its round. *)

module Cipher = Crypto.Cipher
module Prf = Crypto.Prf
module Sha256 = Crypto.Sha256

(* ------------------------------------------------------------------ *)
(* Pure replay-window and epoch-acceptance state machines.             *)
(* ------------------------------------------------------------------ *)

module Window = struct
  type t = { width : int; mutable hi : int; mutable mask : int }

  type verdict = Fresh | Duplicate | Out_of_window

  let create ~width =
    if width < 1 || width > 62 then
      invalid_arg "Mux.Window.create: width must be in 1..62";
    { width; hi = -1; mask = 0 }

  (* [mask] bit k records whether seq [hi - k] was delivered (bit 0 is
     [hi] itself); bits at or beyond [width] are never consulted. *)
  let check w seq =
    if seq < 0 then Out_of_window
    else if w.hi < 0 || seq > w.hi then Fresh
    else if w.hi - seq >= w.width then Out_of_window
    else if w.mask land (1 lsl (w.hi - seq)) <> 0 then Duplicate
    else Fresh

  let note w seq =
    if w.hi < 0 || seq > w.hi then begin
      let shift = if w.hi < 0 then 1 else seq - w.hi in
      w.mask <- (if shift >= 62 then 0 else (w.mask lsl shift) land ((1 lsl 62) - 1)) lor 1;
      w.hi <- seq
    end
    else w.mask <- w.mask lor (1 lsl (w.hi - seq))

  let highest w = w.hi
end

type epoch_verdict = Current | Previous | Stale

(* A frame sealed under [frame_epoch] is judged against the emulated round
   [now] it arrives in: the current epoch always decodes; the previous
   epoch is honoured only within [grace] emulated rounds of the boundary;
   anything older — or claiming a future epoch — is rejected unopened. *)
let epoch_verdict ~epoch_len ~grace ~now ~frame_epoch =
  let cur = now / epoch_len in
  if frame_epoch = cur then Current
  else if frame_epoch = cur - 1 && now mod epoch_len < grace then Previous
  else Stale

let epoch_of ~epoch_len ~now = now / epoch_len

(* ------------------------------------------------------------------ *)
(* Epoch key derivation.                                               *)
(* ------------------------------------------------------------------ *)

(* The raw key of [epoch]: a PRF of the group key and the epoch counter.
   The test suite checks sealed frames against the one-shot
   [Prf.bytes ~key ~label:"mux-epoch" ~counter:epoch]. *)
let epoch_raw group_prf ~epoch =
  Prf.Keyed.bytes group_prf ~label:"mux-epoch" ~counter:epoch

(* ------------------------------------------------------------------ *)
(* Wire formats.                                                       *)
(* ------------------------------------------------------------------ *)

let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF))

(* Same big-endian bytes as [u32] (int32 truncation keeps the low 32 bits
   bytewise), written in place. *)
let set_u32 b pos n = Bytes.set_int32_be b pos (Int32.of_int n)

let read_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

(* Authenticated payload of a Repeat data frame: channel id (epoch keys are
   shared by the whole group, so without the binding a valid frame could be
   spliced onto another logical channel), sequence number, sealing epoch,
   enqueue round (for latency accounting). *)
let encode_payload ~chan ~seq ~epoch ~enq body =
  let bl = String.length body in
  let out = Bytes.create (16 + bl) in
  set_u32 out 0 chan;
  set_u32 out 4 seq;
  set_u32 out 8 epoch;
  set_u32 out 12 enq;
  Bytes.blit_string body 0 out 16 bl;
  (* radio-lint: allow partial-array-unsafe — freshly built, uniquely owned *)
  Bytes.unsafe_to_string out

let decode_payload payload =
  if String.length payload < 16 then None
  else
    Some
      ( read_u32 payload 0,
        read_u32 payload 4,
        read_u32 payload 8,
        read_u32 payload 12,
        String.sub payload 16 (String.length payload - 16) )

(* Data frame on the air: clear epoch header (selects the trial key without
   one MAC attempt per live epoch) + the sealed blob, framed in one
   buffer and parsed in place. *)
let encode_data ~epoch sealed =
  let out = Bytes.create (4 + Cipher.encoded_size sealed) in
  set_u32 out 0 epoch;
  Cipher.encode_into sealed out ~pos:4;
  (* radio-lint: allow partial-array-unsafe — freshly built, uniquely owned *)
  Bytes.unsafe_to_string out

let decode_data blob =
  if String.length blob < 4 then None
  else
    match Cipher.decode_sub blob ~pos:4 with
    | Some sealed -> Some (read_u32 blob 0, sealed)
    | None -> None

(* Acked-transport sealed payloads.  The first word carries the cumulative
   ack for the opposite direction (stored as ack + 1 so -1, "nothing
   delivered yet", encodes cleanly) with the kind flag folded into its top
   bit: flag clear is a data frame, flag set a bare ack carrier sent when
   the sender's queue is empty but the partner still has unretired frames.

   The layout is sized to the keystream: {!Cipher} keystream blocks are 32
   bytes, and a 16-byte header plus the default 16-byte body fills exactly
   one.  A kind byte + ack word + the full Repeat header would spill into a
   second block and nearly double the stream-cipher work of every frame,
   so the sealing epoch — redundant inside the payload, because the clear
   epoch header selects the (epoch-derived) key and any tampering with it
   fails authentication outright — is dropped and the kind flag costs no
   bytes. *)
let pig_ack_flag = 1 lsl 31

let encode_pig_data ~ack ~chan ~seq ~enq body =
  let bl = String.length body in
  let out = Bytes.create (16 + bl) in
  set_u32 out 0 (ack + 1);
  set_u32 out 4 chan;
  set_u32 out 8 seq;
  set_u32 out 12 enq;
  Bytes.blit_string body 0 out 16 bl;
  (* radio-lint: allow partial-array-unsafe — freshly built, uniquely owned *)
  Bytes.unsafe_to_string out

let encode_pig_ack ~ack ~chan ~epoch ~round =
  u32 ((ack + 1) lor pig_ack_flag) ^ u32 chan ^ u32 epoch ^ u32 round

(* Acked frames are re-sealed whenever the folded ack advances, so their
   nonces are keyed by (channel, emulated round) — unique per sealed blob —
   with tag bits keeping them disjoint from the Repeat [nonce_of] space and
   from each other. *)
let pig_nonce ~tag ~chan ~round =
  Int64.logor
    (Int64.shift_left 1L tag)
    (Int64.logor (Int64.shift_left (Int64.of_int chan) 32) (Int64.of_int round))

(* Deterministic message stream: the body of message (channel, seq), padded
   or truncated to the configured size.  Receivers regenerate it, so a
   forged-but-authenticated delivery (impossible short of a MAC break) is
   detected without storing the offered payloads. *)
let gen_body ~payload ~chan ~seq =
  let base = Printf.sprintf "m|%d|%d|" chan seq in
  let b = String.length base in
  if b >= payload then String.sub base 0 payload
  else base ^ String.make (payload - b) 'x'

let forged ~payload ~chan ~seq body = not (String.equal body (gen_body ~payload ~chan ~seq))

(* ------------------------------------------------------------------ *)
(* Specification.                                                      *)
(* ------------------------------------------------------------------ *)

type transport = Acked | Repeat of { reps : int; group : int }

type ack_mode = Piggybacked

type spec = {
  key : string;
  logical : int;
  phys : int;
  budget : int;
  transport : transport;
  rounds : int;
  rate : int;
  queue_cap : int;
  window : int;
  epoch_len : int;
  grace : int;
  payload : int;
  outsiders : int;
  seed : int64;
}

let make ~key ~logical ~phys ~budget ?(transport = Acked) ?ack_mode:(_ : ack_mode option)
    ~rounds ?(rate = 1) ?(queue_cap = 8) ?(window = 32) ?(epoch_len = 16) ?(grace = 4)
    ?(payload = 16) ?(outsiders = 0) ?(seed = 1L) () =
  if logical < 1 then invalid_arg "Mux.make: need at least one logical channel";
  if phys < 2 then invalid_arg "Mux.make: need at least 2 physical channels";
  if budget < 0 || budget >= phys then invalid_arg "Mux.make: need 0 <= budget < phys";
  if rounds < 1 then invalid_arg "Mux.make: need at least one emulated round";
  if rate < 0 then invalid_arg "Mux.make: negative rate";
  if queue_cap < 1 then invalid_arg "Mux.make: queue_cap must be positive";
  if epoch_len < 1 then invalid_arg "Mux.make: epoch_len must be positive";
  if grace < 0 || grace > epoch_len then invalid_arg "Mux.make: need 0 <= grace <= epoch_len";
  if payload < 0 then invalid_arg "Mux.make: negative payload";
  if outsiders < 0 then invalid_arg "Mux.make: negative outsiders";
  (match transport with
  | Acked ->
    if logical < 2 || logical land 1 <> 0 then
      invalid_arg "Mux.make: Acked transport needs an even number of logical channels"
  | Repeat { reps; group } ->
    if reps < 1 then invalid_arg "Mux.make: Repeat needs reps >= 1";
    if group < 2 then invalid_arg "Mux.make: Repeat needs group >= 2");
  ignore (Window.create ~width:window);
  { key; logical; phys; budget; transport; rounds; rate; queue_cap; window; epoch_len;
    grace; payload; outsiders; seed }

let service_nodes spec =
  match spec.transport with
  (* Duplex pairing: node c is both the sender of channel c and the
     receiver of channel [c lxor 1], so one node per channel suffices. *)
  | Acked -> spec.logical
  | Repeat { group; _ } -> spec.logical * group

let node_count spec = service_nodes spec + spec.outsiders

(* Data slots per round: with S = ceil(logical / phys), the at most [phys]
   channels sharing a slot occupy distinct physical channels.  S >= 2 so a
   node's out-channel c and in-channel [c lxor 1] (consecutive ids) always
   land in different slots. *)
let slots spec =
  match spec.transport with
  | Acked -> max ((spec.logical + spec.phys - 1) / spec.phys) 2
  | Repeat { reps; _ } -> reps

(* S data slots + the sync round. *)
let real_rounds_per_emulated spec = slots spec + 1

(* ------------------------------------------------------------------ *)
(* Run statistics.                                                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  mutable offered : int;
  mutable delivered : int;
  mutable acked : int;
  mutable duplicates : int;
  mutable stale_epoch : int;
  mutable out_of_window : int;
  mutable bad_frames : int;
  mutable shed : int;
  mutable retransmissions : int;
  mutable flush_resends : int;
  mutable rekeys : int;
  mutable messages_done : int;
  mutable full_deliveries : int;
  mutable forged_accepts : int;
  mutable plaintext_leaks : int;
  mutable snooped : int;
}

let create_stats () =
  { offered = 0; delivered = 0; acked = 0; duplicates = 0; stale_epoch = 0;
    out_of_window = 0; bad_frames = 0; shed = 0; retransmissions = 0;
    flush_resends = 0; rekeys = 0;
    messages_done = 0; full_deliveries = 0; forged_accepts = 0;
    plaintext_leaks = 0; snooped = 0 }

type result = {
  spec : spec;
  stats : stats;
  engine : Radio.Engine.result;
  latency_hist : int array;
  emulated_rounds : int;
  real_rounds_per_emulated : int;
}

let lat_buckets = 512

let latency_percentile result p =
  let hist = result.latency_hist in
  let total = Array.fold_left ( + ) 0 hist in
  if total = 0 then 0
  else begin
    let target = 1 + int_of_float (p *. float_of_int (total - 1)) in
    let acc = ref 0 and ans = ref (Array.length hist - 1) and found = ref false in
    Array.iteri
      (fun d count ->
        if not !found then begin
          acc := !acc + count;
          if !acc >= target then begin
            ans := d;
            found := true
          end
        end)
      hist;
    !ans
  end

(* ------------------------------------------------------------------ *)
(* Central run state.                                                  *)
(* ------------------------------------------------------------------ *)

type state = {
  sp : spec;
  s : int;  (* slots per phase *)
  rpe : int;  (* real rounds per emulated round *)
  pool : Parallel.Pool.t option;  (* shards a large round's seal and open work *)
  hop_prf : Prf.Keyed.t;
  group_prf : Prf.Keyed.t;
  (* Epoch cipher keys cached by epoch parity: exactly the current and
     previous epoch are ever decodable, so the two slots never thrash. *)
  keys : (int * Cipher.key) option array;
  st : stats;
  lat : int array;
  mutable prepared : int;  (* last round [prepare] ran for; -1 before start *)
  (* The round plan fibers execute, per logical channel. *)
  mutable data_blob : string array;  (* "" = nothing to send *)
  data_chan : int array;
  (* Acked: what channel c seals this round — a queue slot, or one of
     [no_frame] / [ack_frame]. *)
  plan : int array;
  (* What fibers heard last emulated round (stored at resume time). *)
  heard_data : Radio.Frame.t option array;  (* Acked: receiver of channel c *)
  heard_multi : string list array;  (* Repeat: per node, reverse arrival order *)
  (* Bounded per-channel send queues (flat ring buffers). *)
  q_seq : int array;
  q_enq : int array;
  q_sent : int array;  (* Acked: emulated round the entry was first sent *)
  q_head : int array;
  q_len : int array;
  next_seq : int array;
  (* Acked transport, per channel. *)
  windows : Window.t array;  (* receiver *)
  inflight : int array;  (* sender: queue entries transmitted at least once *)
  cum_delivered : int array;  (* receiver: contiguous delivered prefix; -1 none *)
  (* Repeat transport extras. *)
  sent_once : bool array;  (* head already transmitted at least once *)
  r_sender : int array;  (* member index transmitting this round's head *)
  r_windows : Window.t array;  (* per node *)
  r_chans : int array;  (* logical * reps hop assignments for this round *)
}

let create_state ~pool spec =
  let m = spec.logical in
  let nodes = node_count spec in
  let multi = match spec.transport with Acked -> 0 | Repeat _ -> nodes in
  let reps = match spec.transport with Acked -> 0 | Repeat { reps; _ } -> reps in
  { sp = spec;
    s = slots spec;
    rpe = real_rounds_per_emulated spec;
    pool;
    hop_prf = Prf.Keyed.create (Sha256.digest ("mux-hop|" ^ spec.key));
    group_prf = Prf.Keyed.create spec.key;
    keys = [| None; None |];
    st = create_stats ();
    lat = Array.make lat_buckets 0;
    prepared = -1;
    data_blob = Array.make m "";
    data_chan = Array.make m 0;
    plan = Array.make m 0;
    heard_data = Array.make m None;
    heard_multi = Array.make (max 1 multi) [];
    q_seq = Array.make (m * spec.queue_cap) 0;
    q_enq = Array.make (m * spec.queue_cap) 0;
    q_sent = Array.make (m * spec.queue_cap) 0;
    q_head = Array.make m 0;
    q_len = Array.make m 0;
    next_seq = Array.make m 0;
    windows = Array.init m (fun _ -> Window.create ~width:spec.window);
    inflight = Array.make m 0;
    cum_delivered = Array.make m (-1);
    sent_once = Array.make m false;
    r_sender = Array.make m 0;
    r_windows = Array.init (max 1 multi) (fun _ -> Window.create ~width:spec.window);
    r_chans = Array.make (max 1 (m * reps)) 0 }

let note_latency t d =
  let d = if d < 0 then 0 else if d >= lat_buckets then lat_buckets - 1 else d in
  t.lat.(d) <- t.lat.(d) + 1

(* Queue ring accessors. *)
let q_slot t c k = (c * t.sp.queue_cap) + ((t.q_head.(c) + k) mod t.sp.queue_cap)

let q_push t c ~enq =
  if t.q_len.(c) >= t.sp.queue_cap then false
  else begin
    let i = q_slot t c t.q_len.(c) in
    t.q_seq.(i) <- t.next_seq.(c);
    t.q_enq.(i) <- enq;
    t.next_seq.(c) <- t.next_seq.(c) + 1;
    t.q_len.(c) <- t.q_len.(c) + 1;
    true
  end

let q_pop t c =
  t.q_head.(c) <- (t.q_head.(c) + 1) mod t.sp.queue_cap;
  t.q_len.(c) <- t.q_len.(c) - 1;
  t.sent_once.(c) <- false

let head_seq t c = t.q_seq.(q_slot t c 0)
let head_enq t c = t.q_enq.(q_slot t c 0)

let nonce_of ~chan ~seq =
  Int64.logor (Int64.shift_left (Int64.of_int chan) 32) (Int64.of_int seq)

(* The cipher key of [epoch], through the parity-slot cache. *)
let epoch_key t epoch =
  let slot = epoch land 1 in
  match t.keys.(slot) with
  | Some (e, ck) when e = epoch -> ck
  | Some _ | None ->
    let ck = Cipher.key (epoch_raw t.group_prf ~epoch) in
    t.keys.(slot) <- Some (epoch, ck);
    ck

let offer_load t ~e =
  for c = 0 to t.sp.logical - 1 do
    for _ = 1 to t.sp.rate do
      t.st.offered <- t.st.offered + 1;
      if not (q_push t c ~enq:e) then t.st.shed <- t.st.shed + 1
    done
  done

(* ------------------------------------------------------------------ *)
(* The shard phase.                                                    *)
(* ------------------------------------------------------------------ *)

let shard_min_frames = 512

(* [Array.init n (f scratch)] over [n] frame slots (channels, or distinct
   heard blobs), cut into 8 contiguous shards per pool domain, each with
   its own cipher scratch; inline without a multi-domain pool or below
   [shard_min_frames] slots.  Domains take shards from the pool's queue,
   so one slowed by a busy core takes fewer.  [f] only reads the state,
   which nothing writes until every shard has joined. *)
let fan_out t n f =
  let shard (lo, hi) =
    let scr = Cipher.scratch () in
    Array.init (hi - lo) (fun i -> f scr (lo + i))
  in
  match t.pool with
  | Some pool when n >= shard_min_frames && Parallel.Pool.size pool > 1 ->
    let k = 8 * Parallel.Pool.size pool in
    List.init k (fun i -> (i * n / k, (i + 1) * n / k))
    |> Parallel.Pool.map_ordered pool shard
    |> Array.concat
  | Some _ | None -> shard (0, n)

(* A heard frame up to its payload: the clear epoch header picks the key —
   [cur], or [prev] within grace — and the frame is opened under it. *)
type opened = Bad_frame | Stale_frame | Opened of string

let open_blob t ~cur ~prev scr ~now blob =
  match decode_data blob with
  | None -> Bad_frame
  | Some (frame_epoch, sealed) -> (
    let open_under key =
      match Cipher.open_scratch key scr sealed with
      | Some payload -> Opened payload
      | None -> Bad_frame
    in
    match epoch_verdict ~epoch_len:t.sp.epoch_len ~grace:t.sp.grace ~now ~frame_epoch with
    | Current -> open_under cur
    | Previous -> open_under prev
    | Stale -> Stale_frame)

(* [open_blob]'s keys for round [arrival], derived before the fan-out;
   outside the grace window no frame is [Previous] and [prev] is unread. *)
let arrival_keys t ~arrival =
  let cur = epoch_of ~epoch_len:t.sp.epoch_len ~now:arrival in
  let ck = epoch_key t cur and grace = arrival mod t.sp.epoch_len < t.sp.grace in
  (ck, if cur > 0 && grace then epoch_key t (cur - 1) else ck)

(* One authenticated frame bound to its channel meets receiver window [w]. *)
let deliver t w ~arrival ~seq ~enq ~forged =
  match Window.check w seq with
  | Window.Duplicate -> t.st.duplicates <- t.st.duplicates + 1
  | Window.Out_of_window -> t.st.out_of_window <- t.st.out_of_window + 1
  | Window.Fresh ->
    Window.note w seq;
    t.st.delivered <- t.st.delivered + 1;
    note_latency t (arrival - enq);
    if forged then t.st.forged_accepts <- t.st.forged_accepts + 1

(* ------------------------------------------------------------------ *)
(* prepare (Acked transport).                                          *)
(* ------------------------------------------------------------------ *)

(* The ack for round e's frame rides the opposite direction's round e+1
   frame and is processed at the start of round e+2.  It is also the send
   window: frames a sender may have in the air before its first retire. *)
let ack_delay = 2

let no_frame = -1 and ack_frame = -2 (* [plan] entries that are not queue slots *)

(* Receiver side: extend the contiguous delivered prefix of channel [c]
   using the replay window's own delivery record. *)
let advance_cum t c =
  while Window.check t.windows.(c) (t.cum_delivered.(c) + 1) = Window.Duplicate do
    t.cum_delivered.(c) <- t.cum_delivered.(c) + 1
  done

(* Sender side of channel [c]: a cumulative ack retires every queued head
   up to [ack].  Only frames sent at least once can be acknowledged, so
   [inflight] shrinks in step with the queue. *)
let apply_cum_ack t c ~ack =
  while t.q_len.(c) > 0 && t.inflight.(c) > 0 && head_seq t c <= ack do
    q_pop t c;
    t.inflight.(c) <- t.inflight.(c) - 1;
    t.st.acked <- t.st.acked + 1
  done

(* What channel [c]'s receiver made of last round's frame. *)
type pig_heard =
  | Unheard
  | Pig_bad
  | Pig_stale
  | Pig_ack of { ack : int; spliced : bool }
      (* a bare ack carrier, or a splice attempt: a data frame with a valid
         MAC under the shared epoch key but bound to another channel *)
  | Pig_data of { ack : int; seq : int; enq : int; forged : bool }

let judge_pig t ~cur ~prev ~arrival scr c =
  match t.heard_data.(c) with
  | None -> Unheard
  | Some (Radio.Frame.Sealed blob) -> (
    match open_blob t ~cur ~prev scr ~now:arrival blob with
    | Bad_frame -> Pig_bad
    | Stale_frame -> Pig_stale
    | Opened p when String.length p < 16 -> Pig_bad
    | Opened p ->
      let len = String.length p and word = read_u32 p 0 in
      let ack = (word land lnot pig_ack_flag) - 1 in
      if word land pig_ack_flag <> 0 then
        (* Bare ack carrier: fixed size, bound to its own channel. *)
        if len <> 16 || read_u32 p 4 <> c then Pig_bad else Pig_ack { ack; spliced = false }
      else if read_u32 p 4 <> c then Pig_ack { ack; spliced = true }
      else begin
        let seq = read_u32 p 8 in
        let forged = forged ~payload:t.sp.payload ~chan:c ~seq (String.sub p 16 (len - 16)) in
        Pig_data { ack; seq; enq = read_u32 p 12; forged }
      end)
  | Some _ -> Pig_bad

(* The serial state phase: fold the carried ack into the opposite
   direction's queue, then run the delivery judgement and advance the
   cumulative prefix. *)
let apply_pig t ~arrival c = function
  | Unheard -> ()
  | Pig_bad -> t.st.bad_frames <- t.st.bad_frames + 1
  | Pig_stale -> t.st.stale_epoch <- t.st.stale_epoch + 1
  | Pig_ack { ack; spliced } ->
    apply_cum_ack t (c lxor 1) ~ack;
    if spliced then t.st.bad_frames <- t.st.bad_frames + 1
  | Pig_data { ack; seq; enq; forged } ->
    apply_cum_ack t (c lxor 1) ~ack;
    deliver t t.windows.(c) ~arrival ~seq ~enq ~forged;
    advance_cum t c

let process_heard_pig t ~arrival =
  let cur, prev = arrival_keys t ~arrival in
  fan_out t t.sp.logical (judge_pig t ~cur ~prev ~arrival)
  |> Array.iteri (apply_pig t ~arrival);
  Array.fill t.heard_data 0 t.sp.logical None

(* Plan this round's frame per channel: the next unsent queue entry while
   the send window has room, the unacknowledged head otherwise, or a bare
   ack carrier when the queue is empty but the partner still has frames in
   flight.  Every frame folds in the current cumulative ack, so the shards
   re-seal frames each round under a (channel, round)-keyed nonce. *)
let build_pig_frames t ~e =
  let epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
  for c = 0 to t.sp.logical - 1 do
    t.plan.(c) <- no_frame;
    if t.q_len.(c) > 0 then begin
      let fresh = t.inflight.(c) < t.q_len.(c) && t.inflight.(c) < ack_delay in
      let slot = q_slot t c (if fresh then t.inflight.(c) else 0) in
      if fresh then begin
        t.inflight.(c) <- t.inflight.(c) + 1;
        t.q_sent.(slot) <- e
      end
      (* A re-send is a retransmission only once the head's ack is overdue.
         An earlier one (the flush round re-sending each final head as its
         ack carrier) is no evidence of loss. *)
      else if e - t.q_sent.(slot) >= ack_delay then
        t.st.retransmissions <- t.st.retransmissions + 1
      else t.st.flush_resends <- t.st.flush_resends + 1;
      t.plan.(c) <- slot
    end
    else if t.inflight.(c lxor 1) > 0 && t.cum_delivered.(c lxor 1) >= 0 then
      t.plan.(c) <- ack_frame
  done;
  let key = epoch_key t epoch in
  t.data_blob <-
    fan_out t t.sp.logical (fun scr c ->
        let slot = t.plan.(c) and ack = t.cum_delivered.(c lxor 1) in
        let seal ~tag payload =
          encode_data ~epoch
            (Cipher.seal_scratch key scr ~nonce:(pig_nonce ~tag ~chan:c ~round:e) payload)
        in
        if slot = no_frame then ""
        else if slot = ack_frame then
          seal ~tag:62 (encode_pig_ack ~ack ~chan:c ~epoch ~round:e)
        else begin
          let seq = t.q_seq.(slot) in
          seal ~tag:61
            (encode_pig_data ~ack ~chan:c ~seq ~enq:t.q_enq.(slot)
               (gen_body ~payload:t.sp.payload ~chan:c ~seq))
        end)

(* PRF-keyed slot rotation: every channel of slot s lands on a distinct
   physical channel, and the whole slot's placement is unpredictable.  The
   offset depends only on the slot, so the PRF is drawn once per slot and
   fanned out — with thousands of channels over a few dozen slots, drawing
   it per channel made this loop as expensive as sealing the frames it was
   placing. *)
let assign_channels t ~e =
  let off =
    Array.init t.s (fun s ->
        Prf.Keyed.below t.hop_prf ~label:"mux-hop-data" ~counter:((e * t.s) + s) t.sp.phys)
  in
  for c = 0 to t.sp.logical - 1 do
    let s = c mod t.s and p = c / t.s in
    t.data_chan.(c) <- (p + off.(s)) mod t.sp.phys
  done

(* ------------------------------------------------------------------ *)
(* prepare (Repeat transport).                                         *)
(* ------------------------------------------------------------------ *)

let process_heard_multi t ~arrival ~group =
  (* Index the distinct sealed blobs heard across all members in
     first-heard order, open each once in the shard phase, then judge every
     member's arrival list against the results.  The index is lookup-only,
     so the Hashtbl introduces no iteration-order nondeterminism. *)
  let index : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let distinct = ref [] in
  for node = 0 to (t.sp.logical * group) - 1 do
    List.iter
      (fun blob ->
        if not (Hashtbl.mem index blob) then begin
          Hashtbl.add index blob (Hashtbl.length index);
          distinct := blob :: !distinct
        end)
      (List.rev t.heard_multi.(node))
  done;
  let distinct = Array.of_list (List.rev !distinct) in
  let cur, prev = arrival_keys t ~arrival in
  let opened =
    fan_out t (Array.length distinct) (fun scr i ->
        open_blob t ~cur ~prev scr ~now:arrival distinct.(i))
  in
  Array.iter
    (function
      | Bad_frame -> t.st.bad_frames <- t.st.bad_frames + 1
      | Stale_frame -> t.st.stale_epoch <- t.st.stale_epoch + 1
      | Opened _ -> ())
    opened;
  (* Per-node delivery, then per-channel head accounting: the head was
     repeated [reps] times in round [arrival] and is now retired — either
     every receiver has it (a full delivery) or the adversary won the round
     for the missing ones. *)
  for c = 0 to t.sp.logical - 1 do
    if t.q_len.(c) > 0 && t.sent_once.(c) then begin
      let seq = head_seq t c in
      let hits = ref 0 in
      for m = 0 to group - 1 do
        let node = (c * group) + m in
        if m <> t.r_sender.(c) then begin
          (* The member's first heard frame that opened and is bound to c. *)
          let bound blob =
            match Option.map (Array.get opened) (Hashtbl.find_opt index blob) with
            | Some (Opened payload) -> (
              match decode_payload payload with
              | Some (c', seq', _, enq, body) when c' = c -> Some (seq', enq, body)
              | Some _ | None -> None)
            | Some (Bad_frame | Stale_frame) | None -> None
          in
          match List.find_map bound (List.rev t.heard_multi.(node)) with
          | None -> ()
          | Some (seq', enq, body) ->
            let w = t.r_windows.(node) in
            deliver t w ~arrival ~seq:seq' ~enq
              ~forged:(forged ~payload:t.sp.payload ~chan:c ~seq:seq' body);
            (* the head is in this node's window *)
            if Window.check w seq = Window.Duplicate then incr hits
        end
      done;
      if !hits = group - 1 then t.st.full_deliveries <- t.st.full_deliveries + 1;
      t.st.messages_done <- t.st.messages_done + 1;
      q_pop t c
    end
  done;
  Array.fill t.heard_multi 0 (Array.length t.heard_multi) []

let build_repeat_frames t ~e ~reps ~group =
  let epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
  for c = 0 to t.sp.logical - 1 do
    t.sent_once.(c) <- t.q_len.(c) > 0;
    if t.sent_once.(c) then t.r_sender.(c) <- head_seq t c mod group
  done;
  let key = epoch_key t epoch in
  t.data_blob <-
    fan_out t t.sp.logical (fun scr c ->
        if not t.sent_once.(c) then ""
        else begin
          let seq = head_seq t c in
          encode_data ~epoch
            (Cipher.seal_scratch key scr ~nonce:(nonce_of ~chan:c ~seq)
               (encode_payload ~chan:c ~seq ~epoch ~enq:(head_enq t c)
                  (gen_body ~payload:t.sp.payload ~chan:c ~seq)))
        end);
  for c = 0 to t.sp.logical - 1 do
    for j = 0 to reps - 1 do
      t.r_chans.((c * reps) + j) <-
        Prf.Keyed.below t.hop_prf ~label:"mux-hop-r"
          ~counter:((((e * reps) + j) * t.sp.logical) + c)
          t.sp.phys
    done
  done

(* ------------------------------------------------------------------ *)
(* The emulated-round driver.                                          *)
(* ------------------------------------------------------------------ *)

(* Round start: retire heads acknowledged last round, take offered load,
   seal this round's frames, place them on the band. *)
let prepare t ~e =
  if e > 0 && e mod t.sp.epoch_len = 0 then t.st.rekeys <- t.st.rekeys + 1;
  (match t.sp.transport with
  | Acked ->
    if e > 0 then process_heard_pig t ~arrival:(e - 1);
    (* Round [rounds] is the flush round: acks and retransmissions still
       flow so the final deliveries get retired, but no new load enters. *)
    if e < t.sp.rounds then offer_load t ~e;
    build_pig_frames t ~e;
    assign_channels t ~e
  | Repeat { reps; group } ->
    if e > 0 then process_heard_multi t ~arrival:(e - 1) ~group;
    offer_load t ~e;
    build_repeat_frames t ~e ~reps ~group);
  t.prepared <- e

(* Fibers resume in node-id order, so the first service fiber woken in a
   round runs the central step before any fiber reads the plan. *)
let ensure_prepared t ~e = if t.prepared < e then prepare t ~e

(* Process what the final round delivered (fibers have exited; no frames
   left to build). *)
let finalize t =
  match t.sp.transport with
  | Acked -> process_heard_pig t ~arrival:t.sp.rounds
  | Repeat { group; _ } -> process_heard_multi t ~arrival:(t.sp.rounds - 1) ~group

(* Acked service body: node [c] sends on channel c and listens on
   channel [c lxor 1]; consecutive channel ids occupy different slots
   (S >= 2), so one node covers both duties within the S data slots of the
   round.  One extra flush round (e = rounds) lets the final acks land. *)
let pig_service_body t (ctx : Radio.Engine.ctx) =
  let out_c = ctx.Radio.Engine.id in
  let in_c = out_c lxor 1 in
  let so = out_c mod t.s and si = in_c mod t.s in
  let lo = min so si and hi = max so si in
  let act slot =
    if slot = so then begin
      if String.length t.data_blob.(out_c) > 0 then
        Radio.Engine.transmit ~chan:t.data_chan.(out_c)
          (Radio.Frame.Sealed t.data_blob.(out_c))
      else Radio.Engine.idle ()
    end
    else t.heard_data.(in_c) <- Radio.Engine.listen ~chan:t.data_chan.(in_c)
  in
  for e = 0 to t.sp.rounds do
    ensure_prepared t ~e;
    Radio.Engine.idle_for lo;
    act lo;
    Radio.Engine.idle_for (hi - lo - 1);
    act hi;
    Radio.Engine.idle_for (t.s - 1 - hi);
    Radio.Engine.idle ()
  done

let repeat_service_body t ~reps ~group (ctx : Radio.Engine.ctx) =
  let node = ctx.Radio.Engine.id in
  let c = node / group in
  let m = node mod group in
  for e = 0 to t.sp.rounds - 1 do
    ensure_prepared t ~e;
    let sending = t.sent_once.(c) && m = t.r_sender.(c) in
    for j = 0 to reps - 1 do
      let chan = t.r_chans.((c * reps) + j) in
      if sending then
        Radio.Engine.transmit ~chan (Radio.Frame.Sealed t.data_blob.(c))
      else begin
        match Radio.Engine.listen ~chan with
        | Some (Radio.Frame.Sealed blob) ->
          t.heard_multi.(node) <- blob :: t.heard_multi.(node)
        | Some _ -> t.st.bad_frames <- t.st.bad_frames + 1
        | None -> ()
      end
    done;
    Radio.Engine.idle ()
  done

(* Outsiders hold no key.  They snoop (and provably decode nothing) and
   periodically inject well-formed frames sealed under their own key —
   frames that pass every syntactic check and die on the MAC. *)
let outsider_body t (ctx : Radio.Engine.ctx) =
  let wrong = Cipher.key (Printf.sprintf "outsider-%d" ctx.Radio.Engine.id) in
  let scr = Cipher.scratch () in
  for e = 0 to t.sp.rounds - 1 do
    let epoch = epoch_of ~epoch_len:t.sp.epoch_len ~now:e in
    for r = 0 to t.rpe - 1 do
      if Prng.Rng.int ctx.Radio.Engine.rng 8 = 0 then begin
        let nonce = Int64.of_int (((e * t.rpe) + r) lxor ctx.Radio.Engine.id) in
        let payload =
          encode_payload
            ~chan:(Prng.Rng.int ctx.Radio.Engine.rng t.sp.logical)
            ~seq:e ~epoch ~enq:e
            (gen_body ~payload:t.sp.payload ~chan:0 ~seq:e)
        in
        let blob = encode_data ~epoch (Cipher.seal_scratch wrong scr ~nonce payload) in
        Radio.Engine.transmit
          ~chan:(Prng.Rng.int ctx.Radio.Engine.rng t.sp.phys)
          (Radio.Frame.Sealed blob)
      end
      else begin
        match Radio.Engine.listen ~chan:(Prng.Rng.int ctx.Radio.Engine.rng t.sp.phys) with
        | Some (Radio.Frame.Sealed blob) -> (
          t.st.snooped <- t.st.snooped + 1;
          match decode_data blob with
          | None -> ()
          | Some (_, sealed) -> (
            match Cipher.open_scratch wrong scr sealed with
            | Some _ -> t.st.plaintext_leaks <- t.st.plaintext_leaks + 1
            | None -> ()))
        | Some _ | None -> ()
      end
    done
  done

let run ?pool spec ~adversary =
  let pool = match pool with Some _ -> pool | None -> Parallel.ambient_pool () in
  let t = create_state ~pool spec in
  let n = node_count spec in
  (* The Acked transport runs one extra (flush) emulated round. *)
  let emulated = spec.rounds + (match spec.transport with Acked -> 1 | Repeat _ -> 0) in
  let cfg =
    Radio.Config.make ~seed:spec.seed
      ~max_rounds:((emulated * t.rpe) + 4)
      ~track_channels:true ~n ~channels:spec.phys ~t:spec.budget ()
  in
  let service = service_nodes spec in
  let body (ctx : Radio.Engine.ctx) =
    if ctx.Radio.Engine.id >= service then outsider_body t ctx
    else
      match spec.transport with
      | Acked -> pig_service_body t ctx
      | Repeat { reps; group } -> repeat_service_body t ~reps ~group ctx
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary body in
  finalize t;
  { spec; stats = t.st; engine; latency_hist = t.lat; emulated_rounds = spec.rounds;
    real_rounds_per_emulated = t.rpe }

(* ------------------------------------------------------------------ *)
(* Canonical rendering (pool-independent).                            *)
(* ------------------------------------------------------------------ *)

let transport_name = function
  | Acked -> "acked"
  | Repeat { reps; group } -> Printf.sprintf "repeat(reps=%d,group=%d)" reps group

(* The Acked transport piggybacks its acks; Repeat sends none. *)
let ack_name = function Acked -> "piggybacked" | Repeat _ -> "none"

(* Everything here must be byte-identical across pool sizes — it is the
   text the bench's determinism rows hash. *)
let render_stats r =
  let b = Buffer.create 1024 in
  let s = r.stats in
  Printf.bprintf b "mux/v1 transport=%s ack=%s logical=%d phys=%d budget=%d rounds=%d\n"
    (transport_name r.spec.transport)
    (ack_name r.spec.transport)
    r.spec.logical r.spec.phys r.spec.budget r.spec.rounds;
  Printf.bprintf b
    "cfg rate=%d queue_cap=%d window=%d epoch_len=%d grace=%d payload=%d outsiders=%d seed=%Ld\n"
    r.spec.rate r.spec.queue_cap r.spec.window r.spec.epoch_len r.spec.grace
    r.spec.payload r.spec.outsiders r.spec.seed;
  Printf.bprintf b
    "load offered=%d delivered=%d acked=%d shed=%d retransmissions=%d flush_resends=%d \
     duplicates=%d\n"
    s.offered s.delivered s.acked s.shed s.retransmissions s.flush_resends s.duplicates;
  Printf.bprintf b
    "guard stale_epoch=%d out_of_window=%d bad_frames=%d forged_accepts=%d leaks=%d snooped=%d rekeys=%d\n"
    s.stale_epoch s.out_of_window s.bad_frames s.forged_accepts s.plaintext_leaks
    s.snooped s.rekeys;
  Printf.bprintf b "repeat messages_done=%d full_deliveries=%d\n" s.messages_done
    s.full_deliveries;
  Printf.bprintf b "latency p50=%d p99=%d samples=%d\n" (latency_percentile r 0.50)
    (latency_percentile r 0.99)
    (Array.fold_left ( + ) 0 r.latency_hist);
  Printf.bprintf b "rounds emulated=%d real_per_emulated=%d used=%d completed=%b\n"
    r.emulated_rounds r.real_rounds_per_emulated r.engine.Radio.Engine.rounds_used
    r.engine.Radio.Engine.completed;
  Printf.bprintf b "engine %s\n"
    (Format.asprintf "%a" Radio.Transcript.Stats.pp r.engine.Radio.Engine.stats);
  (match r.engine.Radio.Engine.channel_usage with
  | None -> Buffer.add_string b "usage none\n"
  | Some u ->
    let d = u.Radio.Transcript.Channel_usage.deliveries in
    let mn = Array.fold_left min max_int d and mx = Array.fold_left max 0 d in
    let total = Array.fold_left ( + ) 0 d in
    let coll = Array.fold_left ( + ) 0 u.Radio.Transcript.Channel_usage.collisions in
    let jam = Array.fold_left ( + ) 0 u.Radio.Transcript.Channel_usage.jammed in
    Printf.bprintf b "usage phys=%d deliveries=%d min=%d max=%d collisions=%d jammed=%d\n"
      (Array.length d) total mn mx coll jam);
  Buffer.contents b

let output_digest r = Sha256.digest_hex (render_stats r)
