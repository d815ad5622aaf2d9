(** Multiplexed secure-channel service: thousands of logical channels over
    one simulated radio network (ROADMAP item 2, Section 7 at scale).

    Each logical channel carries a sustained message stream with per-channel
    sequence numbers and a replay window; the group key is rolled forward
    every [epoch_len] emulated rounds (epoch keys derived by PRF from the
    group key and the epoch counter), with frames from the previous epoch
    honoured only during a [grace] window; bounded per-channel send queues
    shed load when the radio cannot keep up.

    The protocol work runs in a once-per-emulated-round prepare step with
    two phases.  The shard phase does the per-frame work that reads no
    mutable protocol state: building and sealing this round's frames, and
    decoding, epoch-judging, opening and parsing last round's, each frame
    under the key its epoch header selects (the current or, within grace,
    the previous epoch's, derived beforehand).  It runs over contiguous
    channel ranges, one per domain of the run's pool, each with its own
    {!Crypto.Cipher.scratch}; below {!shard_min_frames} it runs inline.
    The serial state phase then applies the per-channel results in
    channel order — queues, acks, replay windows, latency and every
    counter — so the output is byte-identical for every pool size. *)

(** Pure sliding replay window over per-channel sequence numbers.  Exposed
    for property tests. *)
module Window : sig
  type t

  type verdict = Fresh | Duplicate | Out_of_window

  val create : width:int -> t
  (** [width] in 1..62 (the mask lives in one OCaml int). *)

  val check : t -> int -> verdict
  (** Judge a sequence number: above the window top is [Fresh]; more than
      [width - 1] below it is [Out_of_window]; inside the window, [Duplicate]
      iff already delivered. *)

  val note : t -> int -> unit
  (** Record a delivery (callers [note] exactly the [Fresh] ones). *)

  val highest : t -> int
  (** Highest delivered sequence number, or [-1] if none yet. *)
end

type epoch_verdict = Current | Previous | Stale

val epoch_verdict :
  epoch_len:int -> grace:int -> now:int -> frame_epoch:int -> epoch_verdict
(** Judge a frame sealed under [frame_epoch] arriving in emulated round
    [now]: the current epoch ([now / epoch_len]) always decodes; the
    previous one only within the first [grace] rounds after the boundary;
    everything else — including claimed future epochs — is [Stale] and is
    rejected without a decryption attempt.  Pure; exposed for property
    tests. *)

val epoch_of : epoch_len:int -> now:int -> int

type transport =
  | Acked
      (** [logical] even.  Channels are paired as duplex streams (channel
          [c] and [c lxor 1] run between the same two nodes, one node per
          channel), and the cumulative ack for the opposite direction rides
          inside each sealed data frame — or a bare sealed ack carrier when
          the queue is empty.  An emulated round is S data slots plus a
          sync round, [S + 1] real rounds with
          [S = max(ceil(logical / phys), 2)].  A send window of 2 keeps the
          pipeline full at rate 1; lost frames or acks drive
          retransmission.  One extra flush emulated round retires the final
          deliveries, so drained runs end with [acked = delivered]. *)
  | Repeat of { reps : int; group : int }
      (** [group] members per logical channel; the designated sender
          repeats the sealed head frame [reps] times on a PRF-hopping
          channel ([reps + 1] real rounds per emulated round) — the E9
          broadcast shape. *)

type ack_mode = Piggybacked
(** The one ack mode: acks ride inside the [Acked] transport's data
    frames.  The type and {!make}'s [?ack_mode] argument exist only so that
    callers naming the mode explicitly keep compiling; nothing reads
    them. *)

type spec = {
  key : string;  (** group key *)
  logical : int;  (** number of logical channels *)
  phys : int;  (** physical radio channels *)
  budget : int;  (** adversary strikes per round *)
  transport : transport;
  rounds : int;  (** emulated rounds to run *)
  rate : int;  (** messages offered per channel per emulated round *)
  queue_cap : int;  (** bounded send queue; overflow is shed *)
  window : int;  (** replay-window width *)
  epoch_len : int;  (** emulated rounds per key epoch *)
  grace : int;  (** rounds the previous epoch stays decodable *)
  payload : int;  (** message body bytes *)
  outsiders : int;  (** keyless nodes that snoop and forge *)
  seed : int64;
}

val make :
  key:string ->
  logical:int ->
  phys:int ->
  budget:int ->
  ?transport:transport ->
  ?ack_mode:ack_mode ->
  rounds:int ->
  ?rate:int ->
  ?queue_cap:int ->
  ?window:int ->
  ?epoch_len:int ->
  ?grace:int ->
  ?payload:int ->
  ?outsiders:int ->
  ?seed:int64 ->
  unit ->
  spec
(** Validates every field; raises [Invalid_argument] otherwise.  Defaults:
    [Acked], rate 1, queue_cap 8, window 32, epoch_len 16, grace 4,
    payload 16, outsiders 0, seed 1. *)

val node_count : spec -> int
(** Engine nodes the run needs: 1 per channel (Acked) or [group] per
    channel (Repeat), plus [outsiders]. *)

val real_rounds_per_emulated : spec -> int

type stats = {
  mutable offered : int;  (** messages the application tried to enqueue *)
  mutable delivered : int;  (** fresh in-window deliveries *)
  mutable acked : int;  (** sender-side: head retired by a valid ack *)
  mutable duplicates : int;  (** replay-window hits (lost-ack retransmits) *)
  mutable stale_epoch : int;  (** frames rejected unopened by epoch check *)
  mutable out_of_window : int;
  mutable bad_frames : int;  (** malformed, MAC-rejected, or spliced frames *)
  mutable shed : int;  (** offered messages dropped by backpressure *)
  mutable retransmissions : int;
      (** Acked: re-sends of a head whose ack is overdue (first sent at
          least two emulated rounds earlier) — loss-driven *)
  mutable flush_resends : int;
      (** Acked: re-sends before the head's ack could have arrived — the
          flush round re-sending each final head as its ack carrier *)
  mutable rekeys : int;  (** epoch boundaries crossed *)
  mutable messages_done : int;  (** Repeat: heads retired *)
  mutable full_deliveries : int;  (** Repeat: heads heard by every receiver *)
  mutable forged_accepts : int;  (** authenticated frames with wrong bodies (0) *)
  mutable plaintext_leaks : int;  (** outsider decryptions that succeeded (0) *)
  mutable snooped : int;  (** sealed frames outsiders overheard *)
}

type result = {
  spec : spec;
  stats : stats;
  engine : Radio.Engine.result;
  latency_hist : int array;
      (** bucket [d] counts deliveries [d] emulated rounds after enqueue
          (last bucket absorbs the tail) *)
  emulated_rounds : int;
  real_rounds_per_emulated : int;
}

val latency_percentile : result -> float -> int
(** [latency_percentile r 0.99]: delivery latency in emulated rounds. *)

val shard_min_frames : int
(** 512.  A round's seal or open work fans out across the run's pool only
    over at least this many frame slots (channels, or distinct frames heard
    on the Repeat transport); smaller rounds, such as the 64- and
    256-channel quick bench cells, run inline.  Measured on a 2-vCPU host
    (Acked, 24 emulated rounds, a 2-domain pool, medians of 10 alternating
    runs), sharded over inline: 0.96× at 64 and 128 channels, 1.04× at
    256, 1.54× at 512, 1.80× at 1024, 1.52× at 4096. *)

val run : ?pool:Parallel.Pool.t -> spec -> adversary:Radio.Adversary.t -> result
(** Run the workload on the sparse engine (channel-usage tracking on).  The
    pool — [?pool], else {!Parallel.ambient_pool} — shards the prepare
    step's seal/open work; the engine itself runs on the calling domain.
    Deterministic in [spec]: byte-identical stats and {!render_stats} for
    every pool size. *)

val render_stats : result -> string
(** Canonical multi-line rendering of everything observable about the run;
    the bench's determinism rows hash this. *)

val output_digest : result -> string
(** SHA-256 (hex) of {!render_stats}. *)
