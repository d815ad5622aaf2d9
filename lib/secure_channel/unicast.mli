(** Point-to-point secure channels (Section 8, open question 4).

    Once a pair shares a secret key — from the group-key setup's Part 1, or
    derived from the group key — the two can meet on a pairwise
    pseudo-random hopping pattern that no one else (adversary or other
    nodes) can predict.  One emulated unicast round costs Theta(t log n)
    real rounds, like the broadcast service, but multiple pairs can run
    {e concurrently}: distinct pairs hop independently, colliding with each
    other only when their patterns coincide (probability 1/C per round),
    so aggregate throughput grows with C until self-collisions bite —
    which experiment E14 measures. *)

type spec = {
  key : string;  (** the pairwise secret *)
  channels : int;
  budget : int;
  reps : int;
  hop_prf : Crypto.Prf.Keyed.t;
      (** prepared hop PRF for [key] — built once in {!make_spec}, queried
          every round *)
  cipher : Crypto.Cipher.key;  (** prepared seal/open key for [key] *)
}

val make_spec : ?beta:float -> key:string -> cfg:Radio.Config.t -> unit -> spec
(** [reps] is {!Service.reps} [?beta cfg], the broadcast service's count. *)

val hop : spec -> round:int -> int
(** Pairwise pattern, domain-separated from the broadcast service's. *)

type stream = {
  sender : int;
  receiver : int;
  payloads : string list;  (** one message per emulated round *)
}

type stream_result = {
  stream : stream;
  received : (int * string) list;  (** (emulated round, payload) delivered *)
}

type outcome = {
  engine : Radio.Engine.result;
  results : stream_result list;
  emulated_rounds : int;
  delivered_total : int;
  offered_total : int;
}

val run_streams :
  cfg:Radio.Config.t ->
  keys:(int * int -> string) ->
  streams:stream list ->
  adversary:Radio.Adversary.t ->
  unit ->
  outcome
(** Runs all streams concurrently; [keys (v, w)] is the pairwise secret of
    the (unordered) pair.  Streams must have node-disjoint endpoints.
    Nodes not in any stream idle. *)
