(* perfbench: the repository benchmark.  See README.md in this directory for
   the workloads, the metrics and what each per-layer metric should move.

   One invocation runs one named workload, repeatedly, for a time budget and
   prints one JSON result as its last stdout line.  An untraced run
   (--trace 0) reports the end-to-end metrics of its composite run (see
   [composite]).  A traced run (--trace 1)
   makes one untraced and one traced repetition, times single layers in
   replays, and reports the per-layer metrics.  Every layer is reached only
   through its public entry points; nothing here changes the library. *)

module Mux = Secure_channel.Mux
module Engine = Radio.Engine
module Adversary = Radio.Adversary
module Stats = Radio.Transcript.Stats

(* A monotonic nanosecond clock.  [Parallel.Clock] reads the time of day to
   the microsecond, coarser than an idle radio round. *)
module Clock = struct
  let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
end

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "percentile: no samples";
  a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "median: no samples";
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum xs = Array.fold_left ( +. ) 0.0 xs

(* The messages of the (ok, message) checks that failed. *)
let failures checks = List.filter_map (fun (ok, msg) -> if ok then None else Some msg) checks

(* ------------------------------------------------------------------ *)
(* Workloads and their seed-derived inputs.                            *)
(* ------------------------------------------------------------------ *)

type workload = Svc of { jammed : bool } | Fame_pairs

let workloads =
  [ ("svc-duplex-c4096", Svc { jammed = false });
    ("svc-jammed-c4096", Svc { jammed = true });
    ("fame-pairs-n1e5", Fame_pairs) ]

(* Everything the library receives is derived here from the benchmark seed,
   so a claim can be re-checked on a held-out seed. *)
type inputs = { spec_seed : int64; jam_seed : int64; engine_seed : int64; salt : int64 }

let inputs_of_seed seed =
  let g = Prng.Splitmix64.create (Int64.of_int seed) in
  let spec_seed = Prng.Splitmix64.next g in
  let jam_seed = Prng.Splitmix64.next g in
  let engine_seed = Prng.Splitmix64.next g in
  let salt = Prng.Splitmix64.next g in
  { spec_seed; jam_seed; engine_seed; salt }

(* The service bench spec (bench/main.ml) with piggybacked acks, at 4096
   logical channels and 100 emulated rounds: each run gives at least 100
   emulated-round samples, enough for a p90. *)
let svc_phys = 16

let svc_budget = 4

let svc_rounds = 100

let svc_spec ?(rounds = svc_rounds) inputs =
  Mux.make
    ~key:(Printf.sprintf "perfbench-group-key-%016Lx" inputs.salt)
    ~logical:4096 ~phys:svc_phys ~budget:svc_budget ~transport:Mux.Acked
    ~ack_mode:Mux.Piggybacked ~rounds ~rate:1 ~queue_cap:8 ~window:32
    ~epoch_len:2 ~grace:1 ~payload:16 ~seed:inputs.spec_seed ()

(* A fresh adversary per run: the jammer holds PRNG state. *)
let svc_adversary ~jammed inputs =
  if jammed then
    Adversary.random_jammer (Prng.Rng.create inputs.jam_seed) ~channels:svc_phys
      ~budget:svc_budget
  else Adversary.null

let fame_n = 100_000

let fame_channels = 2

let fame_t = 1

let fame_pairs = Rgraph.Workload.disjoint_pairs ~n:fame_n ~count:4

let fame_message inputs (v, w) = Printf.sprintf "perfbench-%016Lx-%d-%d" inputs.salt v w

(* ------------------------------------------------------------------ *)
(* The round clock.                                                    *)
(* ------------------------------------------------------------------ *)

(* Wraps a run's adversary: [act] is delegated and [observes] kept, and the
   wrapper stamps the wall clock at the first [act] call and at every round
   that is a multiple of [stride].  The engine calls [act] once at the start
   of every round it does not fast-forward, so the stamps split a run into
   set-up (call to first act), round intervals, and finalize (last act to
   return).  Fast-forward needs the adversary to be [Adversary.null] itself,
   so a wrapped run never fast-forwards; the workloads here fast-forward no
   round unwrapped either, so the engine path is the same. *)
module Round_clock = struct
  type t = {
    stride : int;
    mutable calls : int;
    mutable first : float;
    mutable stamps : float array;
    mutable n : int;
  }

  let create ~stride = { stride; calls = 0; first = 0.0; stamps = Array.make 1024 0.0; n = 0 }

  let push c x =
    if c.n = Array.length c.stamps then begin
      let a = Array.make (2 * c.n) 0.0 in
      Array.blit c.stamps 0 a 0 c.n;
      c.stamps <- a
    end;
    c.stamps.(c.n) <- x;
    c.n <- c.n + 1

  let wrap c (inner : Adversary.t) =
    let act ~round =
      let boundary = round mod c.stride = 0 in
      if c.calls = 0 || boundary then begin
        let now = Clock.now_s () in
        if c.calls = 0 then c.first <- now;
        if boundary then push c now
      end;
      c.calls <- c.calls + 1;
      inner.Adversary.act ~round
    in
    { inner with Adversary.act }

  (* [stamps c].(k) is the start of round [k * stride]. *)
  let stamps c = Array.sub c.stamps 0 c.n
end

(* ------------------------------------------------------------------ *)
(* One repetition of a workload.                                       *)
(* ------------------------------------------------------------------ *)

type detail = Svc_result of Mux.result | Fame_result of Ame.Fame.outcome * Ame.Oracle.t

type rep = {
  t_call : float;
  t_return : float;
  first_act : float;
  stamps : float array;
  acts : int;
  rounds : int;
  rpe : int;  (** radio rounds per emulated round *)
  emu_bounds : int array;
      (** emulated round k spans the stamp intervals [emu_bounds.(k)] to
          [emu_bounds.(k+1) - 1]; interval i runs from [stamps.(i)] to the
          next stamp, or to the return for the last one *)
  offered : int;
  delivered : int;
  violations : int;  (** messages on which a security guarantee broke *)
  gate_errors : string list;
  digest : string;
  minor_words : float;
  major_collections : int;
  detail : detail;
}

let wall r = r.t_return -. r.t_call

let setup r = r.first_act -. r.t_call

(* A repetition cut at its stamps: set-up, the intervals between stamps,
   and the last stamp to the return. *)
let segments r =
  let n = Array.length r.stamps in
  Array.init (n + 1) (fun j ->
      if j = 0 then setup r
      else if j < n then r.stamps.(j) -. r.stamps.(j - 1)
      else r.t_return -. r.stamps.(n - 1))

let svc_rep ~pool ~jammed ~stride inputs =
  let spec = svc_spec inputs in
  let clock = Round_clock.create ~stride in
  let adversary = Round_clock.wrap clock (svc_adversary ~jammed inputs) in
  let g0 = Gc.quick_stat () in
  let t_call = Clock.now_s () in
  let r = Mux.run ~pool spec ~adversary in
  let t_return = Clock.now_s () in
  let g1 = Gc.quick_stat () in
  let s = r.Mux.stats in
  let rpe = r.Mux.real_rounds_per_emulated in
  let stamps = Round_clock.stamps clock in
  (* Emulated round e starts at radio round e * rpe; the last bound is the
     start of the flush round. *)
  let emu_bounds = Array.init (spec.Mux.rounds + 1) (fun e -> e * rpe / stride) in
  let gate_errors =
    failures
      [ (s.Mux.forged_accepts = 0, Printf.sprintf "forged_accepts = %d" s.Mux.forged_accepts);
        (s.Mux.plaintext_leaks = 0, Printf.sprintf "plaintext_leaks = %d" s.Mux.plaintext_leaks);
        (r.Mux.engine.Engine.completed, "engine did not complete");
        (s.Mux.delivered > 0, "nothing delivered") ]
  in
  { t_call; t_return; first_act = clock.Round_clock.first; stamps;
    acts = clock.Round_clock.calls; rounds = r.Mux.engine.Engine.rounds_used; rpe; emu_bounds;
    offered = s.Mux.offered; delivered = s.Mux.delivered;
    violations = s.Mux.forged_accepts + s.Mux.plaintext_leaks; gate_errors;
    digest = Mux.output_digest r;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    detail = Svc_result r }

(* Set-up time of the svc spec cut to one emulated round: the mux state
   and the engine's fibers do not depend on the round count, so this is the
   workload's own set-up, sampled for a fraction of a repetition's cost. *)
let svc_setup_probe ~pool ~jammed inputs =
  let clock = Round_clock.create ~stride:max_int in
  let adversary = Round_clock.wrap clock (svc_adversary ~jammed inputs) in
  let t_call = Clock.now_s () in
  ignore (Mux.run ~pool (svc_spec ~rounds:1 inputs) ~adversary);
  clock.Round_clock.first -. t_call

(* Set-up time of the f-AME workload: the same run stopped by [max_rounds]
   after its first round (the engine then discontinues every fiber). *)
let fame_setup_probe ~domains inputs =
  let cfg =
    Radio.Config.make ~max_rounds:1 ~n:fame_n ~channels:fame_channels ~t:fame_t
      ~seed:inputs.engine_seed ()
  in
  let clock = Round_clock.create ~stride:max_int in
  let adversary _ = Round_clock.wrap clock Adversary.null in
  let t_call = Clock.now_s () in
  ignore
    (Parallel.run ~jobs:domains (fun () ->
         Ame.Fame.run ~cfg ~pairs:fame_pairs ~messages:(fame_message inputs) ~adversary ()));
  clock.Round_clock.first -. t_call

let fame_digest (o : Ame.Fame.outcome) =
  let pairs ps = String.concat ";" (List.map (fun (v, w) -> Printf.sprintf "%d-%d" v w) ps) in
  Crypto.Sha256.digest_hex
    (Printf.sprintf
       "fame rounds=%d moves=%d diverged=%b vc=%s\ndelivered=%s\nconfirmed=%s\nfailed=%s\n%s"
       o.Ame.Fame.engine.Engine.rounds_used o.Ame.Fame.moves o.Ame.Fame.diverged
       (match o.Ame.Fame.disruption_vc with Some v -> string_of_int v | None -> "none")
       (String.concat ";"
          (List.map (fun ((v, w), m) -> Printf.sprintf "%d-%d:%s" v w m) o.Ame.Fame.delivered))
       (pairs o.Ame.Fame.confirmed) (pairs o.Ame.Fame.failed)
       (Format.asprintf "%a" Stats.pp o.Ame.Fame.engine.Engine.stats))

(* f-AME runs on radio rounds directly; its emulated round is one game
   move, a message round and the feedback rounds after it, so a run stamps
   every round to find where the moves start. *)
let fame_rep ~domains inputs =
  let cfg =
    Radio.Config.make ~n:fame_n ~channels:fame_channels ~t:fame_t ~seed:inputs.engine_seed ()
  in
  let clock = Round_clock.create ~stride:1 in
  let oracle = ref None in
  let adversary orc =
    oracle := Some orc;
    Round_clock.wrap clock Adversary.null
  in
  let g0 = Gc.quick_stat () in
  let t_call = Clock.now_s () in
  let o =
    Parallel.run ~jobs:domains (fun () ->
        Ame.Fame.run ~cfg ~pairs:fame_pairs ~messages:(fame_message inputs) ~adversary ())
  in
  let t_return = Clock.now_s () in
  let g1 = Gc.quick_stat () in
  let authentic =
    List.length
      (List.filter
         (fun (p, m) -> List.mem p fame_pairs && String.equal m (fame_message inputs p))
         o.Ame.Fame.delivered)
  in
  let offered = List.length fame_pairs in
  let gate_errors =
    failures
      [ ( authentic = offered,
          Printf.sprintf "%d of %d pairs delivered authentically" authentic offered );
        (List.length o.Ame.Fame.delivered = authentic, "a delivered payload is not authentic");
        (not o.Ame.Fame.diverged, "diverged");
        ( (match o.Ame.Fame.disruption_vc with Some v -> v <= fame_t | None -> false),
          "disruption vertex cover exceeds t" );
        (o.Ame.Fame.engine.Engine.completed, "engine did not complete") ]
  in
  let oracle =
    match !oracle with Some orc -> orc | None -> failwith "Fame.run never built its adversary"
  in
  let rounds = o.Ame.Fame.engine.Engine.rounds_used in
  let stamps = Round_clock.stamps clock in
  if Array.length stamps <> rounds then failwith "fame: the round clock missed rounds";
  let starts =
    List.filter (fun i -> Option.is_some (Ame.Oracle.get oracle ~round:i)) (List.init rounds Fun.id)
  in
  let moves = List.length starts in
  let gate_errors =
    if moves = o.Ame.Fame.moves then gate_errors
    else Printf.sprintf "%d message rounds for %d moves" moves o.Ame.Fame.moves :: gate_errors
  in
  { t_call; t_return; first_act = clock.Round_clock.first; stamps; acts = clock.Round_clock.calls;
    rounds; rpe = rounds / max 1 moves; emu_bounds = Array.of_list (starts @ [ rounds ]); offered;
    delivered = authentic; violations = offered - authentic; gate_errors;
    digest = fame_digest o;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
    detail = Fame_result (o, oracle) }

(* Untraced runs stamp emulated-round boundaries only. *)
let untraced_stride = function
  | Svc _ -> Mux.real_rounds_per_emulated (svc_spec (inputs_of_seed 0))
  | Fame_pairs -> 1

let node_count = function
  | Svc _ -> Mux.node_count (svc_spec (inputs_of_seed 0))
  | Fame_pairs -> fame_n

(* svc runs get the explicit pool; f-AME gets one through [Parallel.run]. *)
let one_rep w ~domains ~pool ~stride inputs =
  match (w, pool) with
  | Svc { jammed }, Some pool -> svc_rep ~pool ~jammed ~stride inputs
  | Svc _, None -> invalid_arg "svc workloads need a pool"
  | Fame_pairs, _ -> fame_rep ~domains inputs

(* Latency in emulated rounds from enqueue to delivery, counting the round
   of enqueue (a message delivered in the round it was offered has latency
   1).  f-AME outputs every message when the exchange ends, after its last
   move. *)
let latency_rounds r p =
  match r.detail with
  | Svc_result m -> float_of_int (Mux.latency_percentile m p + 1)
  | Fame_result (o, _) -> float_of_int o.Ame.Fame.moves

(* Wall time of each emulated round of a repetition whose segments
   (see [segments]) are [seg]. *)
let emu_rounds r seg =
  let b = r.emu_bounds in
  Array.init (Array.length b - 1) (fun k -> sum (Array.sub seg (1 + b.(k)) (b.(k + 1) - b.(k))))

(* ------------------------------------------------------------------ *)
(* Layer replays (traced runs only).                                   *)
(* ------------------------------------------------------------------ *)

let time f =
  let t0 = Clock.now_s () in
  let x = f () in
  (x, Clock.now_s () -. t0)

let chunks = 7

(* Per-frame cost of the batch cipher and of a hop draw, in the run's own
   batch shape: [seal_batch] frames sealed per prepare step with the
   piggybacked data payload (16-byte header + body), [open_batch] of them
   opened.  The median of [chunks] batches: a replay runs at another time
   than the run it is compared with, so it takes more samples than the
   others. *)
let crypto_replay ~key ~seal_batch ~open_batch ~msg_len ~phys =
  let chunks = 2 * chunks in
  let ck = Crypto.Cipher.key key and scr = Crypto.Cipher.scratch () in
  let msgs = Array.init seal_batch (fun i -> String.make msg_len (Char.chr (i land 255))) in
  let seals =
    Array.init chunks (fun j ->
        let nonces = Array.init seal_batch (fun i -> Int64.of_int ((j * seal_batch) + i)) in
        time (fun () -> Crypto.Cipher.seal_batch ck scr ~nonces msgs))
  in
  let opens =
    Array.map
      (fun (sealed, _) ->
        let frames = Array.sub sealed 0 open_batch in
        let opened, dt = time (fun () -> Crypto.Cipher.open_batch ck scr frames) in
        Array.iteri
          (fun i o ->
            match o with
            | Some m when String.equal m msgs.(i) -> ()
            | Some _ | None -> failwith "crypto replay: a sealed frame did not open")
          opened;
        dt)
      seals
  in
  let prf = Crypto.Prf.Keyed.create key in
  let draws = 4096 in
  let acc = ref 0 in
  let prf_times =
    Array.init chunks (fun j ->
        snd
          (time (fun () ->
               for i = 0 to draws - 1 do
                 acc :=
                   !acc
                   + Crypto.Prf.Keyed.below prf ~label:"perfbench-hop"
                       ~counter:((j * draws) + i) phys
               done)))
  in
  ignore (Sys.opaque_identity !acc);
  ( median (Array.map snd seals) *. 1e9 /. float_of_int seal_batch,
    median opens *. 1e9 /. float_of_int open_batch,
    median prf_times *. 1e9 /. float_of_int draws )

(* The service's piggybacked slot pattern through [Engine.run_nodes] with
   plaintext frames and no protocol work: node c sends in slot c mod S and
   listens to its duplex partner in that one's slot, S data slots plus a
   sync round per emulated round, flush round included.  Channels rotate
   per (round, slot) without a PRF, co-slotted channels never collide. *)
let engine_replay (spec : Mux.spec) ~adversary =
  let phys = spec.Mux.phys and logical = spec.Mux.logical in
  let s = (logical + phys - 1) / phys in
  let rpe = Mux.real_rounds_per_emulated spec in
  let emulated = spec.Mux.rounds + 1 in
  let cfg =
    Radio.Config.make ~seed:spec.Mux.seed ~max_rounds:((emulated * rpe) + 4) ~track_channels:true
      ~n:logical ~channels:phys ~t:spec.Mux.budget ()
  in
  let chan ~e c = ((c / s) + (7 * e) + (3 * (c mod s))) mod phys in
  let frame = Radio.Frame.Plain { src = 0; dst = 1; body = String.make 48 'p' } in
  let body (ctx : Engine.ctx) =
    let out_c = ctx.Engine.id in
    let in_c = out_c lxor 1 in
    let so = out_c mod s and si = in_c mod s in
    let lo = min so si and hi = max so si in
    let act ~e slot =
      if slot = so then Engine.transmit ~chan:(chan ~e out_c) frame
      else ignore (Engine.listen ~chan:(chan ~e in_c))
    in
    for e = 0 to spec.Mux.rounds do
      Engine.idle_for lo;
      act ~e lo;
      Engine.idle_for (hi - lo - 1);
      act ~e hi;
      Engine.idle_for (s - 1 - hi);
      Engine.idle ()
    done
  in
  let r, dt = time (fun () -> Engine.run_nodes cfg ~adversary body) in
  if r.Engine.rounds_used <> emulated * rpe then
    failwith "engine replay: round count differs from the service's";
  dt

(* Fiber creation for [n] nodes: call to first [act] of a run whose nodes
   each idle one round.  Median of three. *)
let engine_setup_replay ~n ~channels ~t ~seed =
  median
    (Array.init 3 (fun _ ->
         let clock = Round_clock.create ~stride:max_int in
         let cfg = Radio.Config.make ~seed ~n ~channels ~t () in
         let t0 = Clock.now_s () in
         let adversary = Round_clock.wrap clock Adversary.null in
         ignore (Engine.run_nodes cfg ~adversary (fun _ -> Engine.idle ()));
         clock.Round_clock.first -. t0))

(* One [Schedule.build] over a full proposal followed by a [role_of] +
   [witness_channel] sweep over all [n] nodes: ns per query, the build
   amortized in.  The median of [chunks] chunks. *)
let schedule_replay ~n ~channels ~t =
  let proposal = List.init channels (fun i -> Game.State.Edge (2 * i, (2 * i) + 1)) in
  let scratch = Ame.Schedule.make_scratch () in
  let watchers_per_channel =
    Ame.Params.watchers_per_channel Ame.Params.default ~budget:t ~channels
  in
  let iters = max 1 (2_000_000 / (2 * n)) in
  let acc = ref 0 in
  let times =
    Array.init chunks (fun _ ->
        snd
          (time (fun () ->
               for _ = 1 to iters do
                 let sched =
                   Ame.Schedule.build ~scratch ~proposal ~surrogates:(fun _ -> [||]) ~n
                     ~witness_size:channels ~watchers_per_channel ()
                 in
                 for id = 0 to n - 1 do
                   (match Ame.Schedule.role_of sched id with
                   | Ame.Schedule.Broadcast _ -> incr acc
                   | Ame.Schedule.Receive _ | Ame.Schedule.Watch _ | Ame.Schedule.Off -> ());
                   match Ame.Schedule.witness_channel sched id with Some _ -> incr acc | None -> ()
                 done
               done)))
  in
  ignore (Sys.opaque_identity !acc);
  median times *. 1e9 /. float_of_int (iters * 2 * n)

(* ------------------------------------------------------------------ *)
(* Traced-repetition analysis.                                         *)
(* ------------------------------------------------------------------ *)

(* A traced repetition stamps every round (stride 1), so [stamps.(i)] is
   the start of round i and interval i runs to the start of round i+1.
   The intervals whose index satisfies [p]: *)
let intervals_where r p =
  let n = Array.length r.stamps - 1 in
  Array.of_list
    (List.filter_map
       (fun i -> if p i then Some (r.stamps.(i + 1) -. r.stamps.(i)) else None)
       (List.init n Fun.id))

type spans = {
  setup_s : float;
  finalize_s : float;
  prepare : float array;  (** svc: prepare self time per prepare-bearing round *)
  radio : float array;  (** svc: the other rounds; fame: feedback rounds *)
  message : float array;  (** fame: message rounds *)
  radio_total : float;
  checks : string list;  (** failed structural checks *)
}

(* Set-up, the round spans and finalize must add up to the run's wall
   time. *)
let spans r ~prepare ~radio ~message ~radio_total ~checks =
  let setup_s = setup r and finalize_s = r.t_return -. r.stamps.(Array.length r.stamps - 1) in
  let total = setup_s +. sum prepare +. radio_total +. sum message +. finalize_s in
  let checks =
    failures
      ((r.acts = r.rounds && Array.length r.stamps = r.rounds, "round clock missed rounds")
      :: ( Float.abs (total -. wall r) <= 1e-6 *. wall r,
           Printf.sprintf "spans sum to %.9f s, run took %.9f s" total (wall r) )
      :: checks)
  in
  { setup_s; finalize_s; prepare; radio; message; radio_total; checks }

(* svc: a round interval bears the prepare step when
   (r + 1) mod real_per_emulated = 0.  Prepare steps run for emulated
   rounds 0..rounds (the last is the flush round): step 0 inside set-up,
   steps 1..rounds in the selected intervals, and the last round's
   interval is finalize.  The prepare self time is the interval minus the
   median radio round. *)
let svc_spans r ~rpe =
  let bears_prepare i = (i + 1) mod rpe = 0 in
  let raw = intervals_where r bears_prepare in
  let radio = intervals_where r (fun i -> not (bears_prepare i)) in
  let radio_med = median radio in
  let prepare = Array.map (fun x -> x -. radio_med) raw in
  spans r ~prepare ~radio ~message:[||]
    ~radio_total:(sum radio +. (float_of_int (Array.length prepare) *. radio_med))
    ~checks:
      [ ( r.rounds = (svc_rounds + 1) * rpe,
          Printf.sprintf "%d rounds used, expected (%d + 1 flush) x %d" r.rounds svc_rounds rpe );
        ( Array.length prepare = svc_rounds,
          Printf.sprintf "%d prepare-bearing intervals, expected %d" (Array.length prepare)
            svc_rounds );
        ( Array.for_all (fun x -> x > 20.0 *. radio_med) raw,
          "a selected interval is not a prepare step (under 20x the median radio round)" ) ]

(* fame: a round is a message round when the schedule oracle has an entry
   for it; the rest are feedback rounds. *)
let fame_spans r ~oracle =
  let is_msg i = Option.is_some (Ame.Oracle.get oracle ~round:i) in
  let radio = intervals_where r (fun i -> not (is_msg i)) in
  spans r ~prepare:[||] ~radio ~message:(intervals_where r is_msg) ~radio_total:(sum radio)
    ~checks:[]

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)
(* ------------------------------------------------------------------ *)

(* (name, unit, value) *)
type metric = string * string * float

let ms x = x *. 1e3

let us x = x *. 1e6

let peak_heap_mib () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1048576.0

(* Every repetition of a run executes the same rounds (the digest gate
   checks it), so each is cut into the same segments: set-up, each
   emulated round (f-AME: each radio round), and the tail.  The composite
   run is the average repetition: each segment's mean over the run's
   repetitions.  Its total is the mean wall time, and its emulated rounds
   are the per-round means, whose percentiles do not flip between the
   slow and fast stretches a shared host goes through the way the
   percentiles of single rounds do.  The set-up time is the median of all
   set-ups. *)
let composite reps =
  let segs = List.map segments reps in
  let n = Array.length (List.hd segs) in
  if List.exists (fun s -> Array.length s <> n) segs then None
  else
    let k = float_of_int (List.length segs) in
    Some (Array.init n (fun j -> List.fold_left (fun acc s -> acc +. s.(j)) 0.0 segs /. k))

let end_to_end reps ~composite:c ~setups ~heap_mib : metric list =
  let r0 = List.hd reps in
  let total = sum c in
  let emu = emu_rounds r0 c in
  [ ("setup_s", "s", median (Array.append (Array.of_list (List.map setup reps)) setups));
    ("rounds_per_s", "1/s", float_of_int r0.rounds /. (total -. c.(0)));
    ("exchange_s", "s", total);
    ("msgs_per_s", "1/s", float_of_int r0.delivered /. total);
    ("emu_round_ms_p50", "ms", ms (percentile emu 0.50));
    ("emu_round_ms_p90", "ms", ms (percentile emu 0.90));
    ("latency_rounds_p50", "rounds", latency_rounds r0 0.50);
    ("latency_rounds_p99", "rounds", latency_rounds r0 0.99);
    ("delivered_ratio", "ratio", float_of_int r0.delivered /. float_of_int r0.offered);
    ("heap_peak_mb", "MiB", heap_mib) ]

(* Metrics of a layer that does no work in the workload. *)
let zeros names : metric list = List.map (fun (name, unit) -> (name, unit, 0.0)) names

(* The per-layer metrics of one untraced repetition [u] and one traced
   repetition [t] of the same inputs, plus the layer replays.  A layer that
   does no work in the workload reports 0.  Returns the metrics, lines for
   the human-readable summary, and failed structural checks. *)
let per_layer w ~inputs ~u ~t : metric list * (string * string) list * string list =
  let rounds = float_of_int u.rounds in
  let engine (stats : Stats.t) ~radio_round ~radio_share ~replay_s =
    [ ("engine.radio_round_us_p50", "us", us radio_round);
      ("engine.radio_share", "ratio", radio_share);
      ("engine.rounds", "count", rounds);
      ("engine.real_per_emulated", "count", float_of_int u.rpe);
      ("engine.replay_ms", "ms", ms replay_s);
      ("engine.fast_forwarded_rounds", "count", float_of_int (t.rounds - t.acts));
      ("engine.deliveries_per_round", "ratio", float_of_int stats.Stats.deliveries /. rounds) ]
  in
  (* The replays at the workload's n, C and t, and the run's GC and
     tracing cost. *)
  let common ~channels ~budget ~seed =
    let n = node_count w in
    [ ("engine.setup_s", "s", engine_setup_replay ~n ~channels ~t:budget ~seed);
      ("schedule.query_ns", "ns", schedule_replay ~n ~channels ~t:budget);
      ("gc.minor_words_per_op", "words", u.minor_words /. rounds);
      ("gc.major_collections", "count", float_of_int u.major_collections);
      ("trace.overhead_share", "ratio", (wall t -. wall u) /. wall u) ]
  in
  match (w, u.detail, t.detail) with
  | Svc { jammed }, Svc_result res, Svc_result _ ->
    let spec = res.Mux.spec in
    let rpe = res.Mux.real_rounds_per_emulated in
    let sp = svc_spans t ~rpe in
    let st = res.Mux.stats and es = res.Mux.engine.Engine.stats in
    (* Identity checked against counting wrappers around the batch entry
       points: in piggybacked mode every transmitted frame was sealed once
       and every received frame opened once. *)
    let seals = es.Stats.honest_transmissions and opens = es.Stats.deliveries in
    let steps = spec.Mux.rounds + 1 in
    let prf_calls = (rpe - 1) * steps in
    let seal_ns, open_ns, prf_ns =
      crypto_replay ~key:spec.Mux.key ~seal_batch:(max 1 (seals / steps))
        ~open_batch:(max 1 (opens / steps)) ~msg_len:(16 + spec.Mux.payload) ~phys:spec.Mux.phys
    in
    let crypto_s =
      ((float_of_int seals *. seal_ns) +. (float_of_int opens *. open_ns)
      +. (float_of_int prf_calls *. prf_ns))
      *. 1e-9
    in
    let replay_s = engine_replay spec ~adversary:(svc_adversary ~jammed inputs) in
    let metrics =
      [ ("mux.prepare_ms_p50", "ms", ms (median sp.prepare));
        ("mux.prepare_share", "ratio", sum sp.prepare /. wall t);
        ("mux.finalize_ms", "ms", ms sp.finalize_s);
        ("crypto.seal_ns", "ns", seal_ns);
        ("crypto.open_ns", "ns", open_ns);
        ("crypto.prf_below_ns", "ns", prf_ns);
        ("crypto.share", "ratio", crypto_s /. wall u);
        ("crypto.seals", "count", float_of_int seals);
        ("crypto.opens", "count", float_of_int opens);
        ("mux.frames_per_delivery", "ratio", float_of_int seals /. float_of_int st.Mux.delivered);
        ("mux.retransmissions", "count", float_of_int st.Mux.retransmissions);
        ("mux.shed", "count", float_of_int st.Mux.shed);
        ("mux.duplicates", "count", float_of_int st.Mux.duplicates);
        ("mux.bad_frames", "count", float_of_int st.Mux.bad_frames);
        ("mux.stale_epoch", "count", float_of_int st.Mux.stale_epoch) ]
      @ engine es ~radio_round:(median sp.radio) ~radio_share:(sp.radio_total /. wall t) ~replay_s
      @ zeros
          [ ("fame.feedback_round_us_p50", "us");
            ("fame.feedback_round_us_p99", "us");
            ("fame.message_round_ms", "ms") ]
      @ common ~channels:spec.Mux.phys ~budget:spec.Mux.budget ~seed:spec.Mux.seed
    in
    let info =
      [ ( "spans_s",
          Printf.sprintf "setup=%.6f prepare=%.6f radio=%.6f finalize=%.6f wall=%.6f" sp.setup_s
            (sum sp.prepare) sp.radio_total sp.finalize_s (wall t) );
        ( "prepare_steps",
          Printf.sprintf "%d = 1 in set-up + %d selected intervals (emulated rounds %d + flush)"
            (Array.length sp.prepare + 1) (Array.length sp.prepare) spec.Mux.rounds );
        ( "crypto_s",
          Printf.sprintf "%.6f (replay estimate; untraced run %.6f s)" crypto_s (wall u) ) ]
    in
    (metrics, info, sp.checks)
  | Fame_pairs, Fame_result (o, _), Fame_result (_, oracle) ->
    let sp = fame_spans t ~oracle in
    let es = o.Ame.Fame.engine.Engine.stats in
    let metrics =
      zeros
        [ ("mux.prepare_ms_p50", "ms"); ("mux.prepare_share", "ratio"); ("mux.finalize_ms", "ms");
          ("crypto.seal_ns", "ns"); ("crypto.open_ns", "ns"); ("crypto.prf_below_ns", "ns");
          ("crypto.share", "ratio"); ("crypto.seals", "count"); ("crypto.opens", "count");
          ("mux.frames_per_delivery", "ratio"); ("mux.retransmissions", "count");
          ("mux.shed", "count"); ("mux.duplicates", "count"); ("mux.bad_frames", "count");
          ("mux.stale_epoch", "count") ]
      @ engine es
          ~radio_round:(median (Array.append sp.message sp.radio))
          ~radio_share:((sp.radio_total +. sum sp.message) /. wall t)
          ~replay_s:0.0
      @ [ ("fame.feedback_round_us_p50", "us", us (percentile sp.radio 0.50));
          ("fame.feedback_round_us_p99", "us", us (percentile sp.radio 0.99));
          ("fame.message_round_ms", "ms", ms (median sp.message)) ]
      @ common ~channels:fame_channels ~budget:fame_t ~seed:inputs.engine_seed
    in
    let info =
      [ ( "spans_s",
          Printf.sprintf "setup=%.6f message=%.6f feedback=%.6f finalize=%.6f wall=%.6f" sp.setup_s
            (sum sp.message) sp.radio_total sp.finalize_s (wall t) );
        ("message_rounds", Printf.sprintf "%d of %d rounds" (Array.length sp.message) t.rounds) ]
    in
    (metrics, info, sp.checks)
  | _ -> invalid_arg "per_layer: results do not match the workload"

(* ------------------------------------------------------------------ *)
(* Output.                                                             *)
(* ------------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* Every digit as measured. *)
let json_float x =
  if not (Float.is_finite x) then invalid_arg "json_float: not finite";
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let json_obj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields) ^ "}"

let result_line ~correct ~attempted ~failed (metrics : metric list) =
  json_obj
    [ ("correct", string_of_bool correct);
      ("attempted", string_of_int attempted);
      ("failed", string_of_int failed);
      ( "metrics",
        json_obj
          (List.map
             (fun (name, unit, v) ->
               (name, json_obj [ ("value", json_float v); ("unit", json_string unit) ]))
             metrics) ) ]

(* The traced repetition's round starts, relative to its top-level call. *)
let write_spans path ~workload ~seed (r : rep) =
  let oc = open_out path in
  Printf.fprintf oc "{\"workload\": %s, \"seed\": %d, \"wall_s\": %.9f, \"round_start_s\": ["
    (json_string workload) seed (wall r);
  Array.iteri
    (fun i x -> Printf.fprintf oc "%s%.9f" (if i = 0 then "" else ", ") (x -. r.t_call))
    r.stamps;
  output_string oc "]}\n";
  close_out oc

(* ------------------------------------------------------------------ *)
(* Main.                                                               *)
(* ------------------------------------------------------------------ *)

(* Repeat [f] while another repetition as long as the longest so far still
   fits in [seconds]; at least one repetition. *)
let repeat_for ~seconds f =
  let t0 = Clock.now_s () in
  let rec go acc longest =
    let t = Clock.now_s () in
    let acc = f () :: acc in
    let now = Clock.now_s () in
    let longest = Float.max longest (now -. t) in
    if now -. t0 +. longest <= float_of_int seconds then go acc longest else List.rev acc
  in
  go [] 0.0

let usage =
  "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 [--nproc N] [--spans PATH]"

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  let nproc = ref (Parallel.default_jobs ()) and spans = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_int seconds, " measurement budget (untraced runs)");
      ("--trace", Arg.Set_int trace, " 1: per-layer metrics");
      ("--nproc", Arg.Set_int nproc, " host processors: the pool's domain count");
      ("--spans", Arg.Set_string spans, " traced runs: write the round clock's spans here") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None ->
      prerr_endline
        ("perfbench: unknown workload; one of " ^ String.concat ", " (List.map fst workloads));
      exit 2
  in
  let inputs = inputs_of_seed !seed in
  let traced = !trace = 1 in
  let stride = untraced_stride w in
  let with_pool f =
    match w with
    | Svc _ -> Parallel.Pool.with_pool ~domains:!nproc (fun p -> f (Some p))
    | Fame_pairs -> f None
  in
  let reps, metrics, info, checks, domains =
    with_pool (fun pool ->
        let domains =
          match pool with
          | Some p -> Parallel.Pool.size p
          | None -> max 1 (min !nproc (Parallel.default_jobs ()))
        in
        let rep ~stride = one_rep w ~domains:!nproc ~pool ~stride inputs in
        if not traced then
          (* The major heap's peak is read after the first repetition, and
             the heap is compacted between repetitions, so the figure does
             not depend on how many repetitions fit the budget. *)
          let heap_mib = ref 0.0 in
          (* More set-up samples before each repetition, so they meet the
             same host conditions as the repetitions do: two for svc, whose
             set-up takes a few tens of ms, one for f-AME. *)
          let probes () =
            match (w, pool) with
            | Svc { jammed }, Some pool -> List.init 2 (fun _ -> svc_setup_probe ~pool ~jammed inputs)
            | _ -> [ fame_setup_probe ~domains:!nproc inputs ]
          in
          let runs =
            repeat_for ~seconds:!seconds (fun () ->
                let probes = probes () in
                let r = rep ~stride in
                if !heap_mib = 0.0 then heap_mib := peak_heap_mib ();
                Gc.compact ();
                (r, probes))
          in
          let reps = List.map fst runs in
          let setups = Array.of_list (List.concat_map snd runs) in
          let c, checks =
            match composite reps with
            | Some c -> (c, [])
            | None -> (segments (List.hd reps), [ "repetitions cut into different segments" ])
          in
          ( reps,
            end_to_end reps ~composite:c ~setups ~heap_mib:!heap_mib,
            [ ("emu_rounds", string_of_int (Array.length (emu_rounds (List.hd reps) c)));
              ("setup_samples", string_of_int (List.length reps + Array.length setups));
              ( "rep_wall_s",
                String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" (wall r)) reps) );
              ("composite_wall_s", Printf.sprintf "%.4f" (sum c)) ],
            checks,
            domains )
        else begin
          let u = rep ~stride in
          Gc.compact ();
          let t = rep ~stride:1 in
          if !spans <> "" then write_spans !spans ~workload:!workload ~seed:!seed t;
          let metrics, info, checks = per_layer w ~inputs ~u ~t in
          ( [ u; t ],
            metrics,
            ("wall_s", Printf.sprintf "untraced %.6f traced %.6f" (wall u) (wall t)) :: info,
            checks,
            domains )
        end)
  in
  let digest = (List.hd reps).digest in
  let errors =
    List.concat_map (fun r -> r.gate_errors) reps
    @ (if List.for_all (fun r -> String.equal r.digest digest) reps then []
       else [ "output digest differs between repetitions" ])
    @ checks
  in
  let summary =
    [ ("perfbench", json_string "v1");
      ("workload", json_string !workload);
      ("seed", string_of_int !seed);
      ("trace", string_of_int !trace);
      ("reps", string_of_int (List.length reps));
      ("domains", string_of_int domains);
      ("nproc", string_of_int !nproc);
      ("ocaml", json_string Sys.ocaml_version);
      ("digest", json_string digest);
      ( "inputs",
        json_string
          (Printf.sprintf "spec_seed=%016Lx jam_seed=%016Lx engine_seed=%016Lx salt=%016Lx"
             inputs.spec_seed inputs.jam_seed inputs.engine_seed inputs.salt) );
      ("errors", json_string (String.concat "; " errors)) ]
    @ List.map (fun (k, v) -> (k, json_string v)) info
  in
  print_endline (json_obj summary);
  List.iter (fun e -> prerr_endline ("perfbench: gate failed: " ^ e)) errors;
  let correct = errors = [] in
  let attempted = List.fold_left (fun acc r -> acc + r.offered) 0 reps in
  let failed = List.fold_left (fun acc r -> acc + r.violations) 0 reps in
  print_endline (result_line ~correct ~attempted ~failed metrics);
  if not correct then exit 1
