(** The communication-feedback sub-routine (Figure 1, Section 5.3).

    After a communication round, nodes agree on which channels succeeded.
    For each channel index r in turn, its C witnesses occupy all C channels
    for [reps] rounds: broadcasting <true, r> (each on its own rank channel)
    if their channel delivered, <false> otherwise — so every channel is
    always occupied and the adversary can never spoof feedback, only jam.
    Every other node listens on a uniformly random channel each round and
    records r upon hearing <true, r>; with reps = Theta((C/(C-t)) log n) it
    succeeds with high probability (Lemma 5).

    This function is node-side code: it must be called inside an engine
    fiber, by all nodes in the same round, with identical [witnesses]. *)

type buffers
(** A node's listen buffers: the hop channels and what was heard, [reps]
    slots each.  Allocate them once per node per run with {!buffers} and
    pass them to every {!run} of that node: the engine reads them while the
    fiber is suspended in its listen-series, so a node's buffers must not
    be shared with another node. *)

val buffers : reps:int -> buffers

val run :
  bufs:buffers ->
  my_id:int ->
  rng:Prng.Rng.t ->
  channels:int ->
  reps:int ->
  witnesses:int array array ->
  witness_size:int ->
  my_flag:bool ->
  int list
(** [run ~bufs ~my_id ~rng ~channels ~reps ~witnesses ~witness_size ~my_flag]
    consumes exactly [Array.length witnesses * reps] rounds and returns the
    set D of channel indices believed to have succeeded, sorted.  The
    witness set W[r] is the first [witness_size] entries of
    [witnesses.(r)] — callers hand the schedule's full watcher arrays and a
    prefix length instead of copied sub-arrays.  [witness_size] must equal
    [channels] (each witness set occupies every channel during its phase)
    and every [witnesses.(r)] must have at least that many entries.
    [my_flag] is consulted only if [my_id] appears in some witness prefix
    (a node may witness at most one channel).  [bufs] must have been made
    with [buffers ~reps] for the same [reps] (else [Invalid_argument]); its
    contents on entry are ignored.

    Listener rounds are declared through {!Radio.Engine.listen_series} —
    one suspension per feedback phase rather than one per round — which is
    observationally identical (the random hop sequence is drawn from the
    same per-node stream in the same order) but makes population-scale
    feedback cost array reads per listener-round instead of a fiber
    resume. *)

val rounds_consumed : witnesses:int array array -> reps:int -> int
