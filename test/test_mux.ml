(* Tests for the multiplexed secure-channel service: replay windows, epoch
   re-keying, backpressure, epoch keys against the one-shot crypto API,
   pool-size determinism, and both transports end-to-end. *)

module Mux = Secure_channel.Mux

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let key = Crypto.Sha256.digest "mux-test-group-key"

(* ------------------------------------------------------------------ *)
(* Window properties (against a naive reference model).                *)
(* ------------------------------------------------------------------ *)

(* Reference model: remember every delivered seq and the running maximum. *)
let window_matches_model =
  QCheck.Test.make ~name:"window matches naive model" ~count:300
    QCheck.(pair (int_range 1 62) (small_list (int_range 0 80)))
    (fun (width, seqs) ->
      let w = Mux.Window.create ~width in
      let delivered = Hashtbl.create 16 in
      let hi = ref (-1) in
      List.for_all
        (fun seq ->
          let expect =
            if !hi >= 0 && seq <= !hi && !hi - seq >= width then Mux.Window.Out_of_window
            else if Hashtbl.mem delivered seq then Mux.Window.Duplicate
            else Mux.Window.Fresh
          in
          let got = Mux.Window.check w seq in
          let ok =
            match (got, expect) with
            | Mux.Window.Fresh, Mux.Window.Fresh
            | Mux.Window.Duplicate, Mux.Window.Duplicate
            | Mux.Window.Out_of_window, Mux.Window.Out_of_window -> true
            | _ -> false
          in
          (match got with
          | Mux.Window.Fresh ->
            Mux.Window.note w seq;
            Hashtbl.replace delivered seq ();
            hi := max !hi seq
          | Mux.Window.Duplicate | Mux.Window.Out_of_window -> ());
          ok && Mux.Window.highest w = !hi)
        seqs)

let window_duplicate_after_note () =
  let w = Mux.Window.create ~width:8 in
  Mux.Window.note w 5;
  (match Mux.Window.check w 5 with
  | Mux.Window.Duplicate -> ()
  | _ -> Alcotest.fail "seq 5 should be a duplicate");
  (match Mux.Window.check w 6 with
  | Mux.Window.Fresh -> ()
  | _ -> Alcotest.fail "seq 6 should be fresh");
  Mux.Window.note w 20;
  (* 5 fell more than width-1 below the new top. *)
  match Mux.Window.check w 5 with
  | Mux.Window.Out_of_window -> ()
  | _ -> Alcotest.fail "seq 5 should now be out of window"

let window_rejects_bad_width () =
  Alcotest.check_raises "width 0" (Invalid_argument "Mux.Window.create: width must be in 1..62")
    (fun () -> ignore (Mux.Window.create ~width:0));
  Alcotest.check_raises "width 63" (Invalid_argument "Mux.Window.create: width must be in 1..62")
    (fun () -> ignore (Mux.Window.create ~width:63))

(* ------------------------------------------------------------------ *)
(* Epoch verdict properties.                                           *)
(* ------------------------------------------------------------------ *)

let epoch_verdict_properties =
  QCheck.Test.make ~name:"epoch verdict: current always, previous in grace, rest stale"
    ~count:500
    QCheck.(
      quad (int_range 1 50) (int_range 0 50) (int_range 0 2000) (int_range (-2) 130))
    (fun (epoch_len, grace_raw, now, frame_epoch) ->
      let grace = min grace_raw epoch_len in
      let cur = now / epoch_len in
      let got = Mux.epoch_verdict ~epoch_len ~grace ~now ~frame_epoch in
      let expect =
        if frame_epoch = cur then Mux.Current
        else if frame_epoch = cur - 1 && now mod epoch_len < grace then Mux.Previous
        else Mux.Stale
      in
      match (got, expect) with
      | Mux.Current, Mux.Current | Mux.Previous, Mux.Previous | Mux.Stale, Mux.Stale ->
        true
      | _ -> false)

let epoch_boundary_cases () =
  (* epoch_len 10, grace 3: rounds 10,11,12 still accept epoch 0; 13 no. *)
  let v ~now ~fe = Mux.epoch_verdict ~epoch_len:10 ~grace:3 ~now ~frame_epoch:fe in
  (match v ~now:10 ~fe:0 with Mux.Previous -> () | _ -> Alcotest.fail "grace start");
  (match v ~now:12 ~fe:0 with Mux.Previous -> () | _ -> Alcotest.fail "grace end");
  (match v ~now:13 ~fe:0 with Mux.Stale -> () | _ -> Alcotest.fail "stale after grace");
  (match v ~now:12 ~fe:1 with Mux.Current -> () | _ -> Alcotest.fail "current epoch");
  (match v ~now:5 ~fe:1 with Mux.Stale -> () | _ -> Alcotest.fail "future epoch stale");
  match v ~now:25 ~fe:0 with Mux.Stale -> () | _ -> Alcotest.fail "two epochs back"

(* ------------------------------------------------------------------ *)
(* End-to-end runs (Acked transport).                                  *)
(* ------------------------------------------------------------------ *)

let null = Radio.Adversary.null

let jammer seed budget = Radio.Adversary.random_jammer (Prng.Rng.create seed) ~channels:8 ~budget

let base_spec ?(transport = Mux.Acked) ?(rounds = 40) ?(logical = 24) ?(rate = 1)
    ?(queue_cap = 64) ?(epoch_len = 8) ?(grace = 3) ?(outsiders = 0) () =
  Mux.make ~key ~logical ~phys:8 ~budget:2 ~transport ~rounds ~rate ~queue_cap ~epoch_len
    ~grace ~outsiders ~seed:11L ()

(* Jams [budget] fixed channels during the first [real_rounds] engine rounds
   and then falls silent forever, so early losses are retransmitted out of
   the queue while the adversary is quiet and the run still drains. *)
let early_jammer ~real_rounds ~budget =
  { Radio.Adversary.name = "early-jammer";
    act =
      (fun ~round ->
        if round < real_rounds then
          List.init budget (fun i -> { Radio.Adversary.chan = i; spoof = None })
        else []);
    observe = (fun _ -> ());
    observes = false }

let acked_null_delivers () =
  let r = Mux.run (base_spec ()) ~adversary:null in
  let s = r.Mux.stats in
  check Alcotest.bool "completed" true r.Mux.engine.Radio.Engine.completed;
  check Alcotest.int "offered = rate * logical * rounds" (24 * 40) s.Mux.offered;
  check Alcotest.int "fully drained: delivered = offered" s.Mux.offered s.Mux.delivered;
  check Alcotest.int "fully drained: acked = delivered" s.Mux.delivered s.Mux.acked;
  check Alcotest.int "no shedding" 0 s.Mux.shed;
  check Alcotest.bool "epochs rolled" true (s.Mux.rekeys >= 4);
  check Alcotest.int "no forged accepts" 0 s.Mux.forged_accepts;
  check Alcotest.int "no leaks" 0 s.Mux.plaintext_leaks;
  (* Every slot is collision-free by construction, so nothing is lost: no
     retransmissions.  The one flush round re-sends each channel's final
     head as its ack carrier, and the receiver sees it as a duplicate. *)
  check Alcotest.int "no retransmissions" 0 s.Mux.retransmissions;
  check Alcotest.int "one flush re-send per channel" 24 s.Mux.flush_resends;
  check Alcotest.int "duplicates are the flush re-sends" s.Mux.flush_resends s.Mux.duplicates;
  check Alcotest.int "null-adversary p99 latency" 0 (Mux.latency_percentile r 0.99)

let acked_jamming_retransmits () =
  let r = Mux.run (base_spec ~rounds:60 ()) ~adversary:(jammer 5L 2) in
  check Alcotest.bool "completed" true r.Mux.engine.Radio.Engine.completed;
  check Alcotest.bool "still delivers" true (r.Mux.stats.Mux.delivered > 200);
  check Alcotest.bool "jamming forces retransmissions" true
    (r.Mux.stats.Mux.retransmissions > 0);
  check Alcotest.int "authentication holds" 0 r.Mux.stats.Mux.forged_accepts;
  check Alcotest.int "secrecy holds" 0 r.Mux.stats.Mux.plaintext_leaks

let backpressure_sheds () =
  (* Offered load of 3/round into a queue of 2 under jamming must shed. *)
  let r = Mux.run (base_spec ~rounds:30 ~rate:3 ~queue_cap:2 ()) ~adversary:(jammer 7L 2) in
  check Alcotest.bool "sheds under overload" true (r.Mux.stats.Mux.shed > 0);
  check Alcotest.int "offered = rate * channels * rounds"
    (3 * 24 * 30) r.Mux.stats.Mux.offered

let outsiders_cannot_read_or_forge () =
  let r = Mux.run (base_spec ~outsiders:3 ()) ~adversary:null in
  check Alcotest.bool "outsiders overheard traffic" true (r.Mux.stats.Mux.snooped > 0);
  check Alcotest.int "secrecy: no outsider decryption" 0 r.Mux.stats.Mux.plaintext_leaks;
  check Alcotest.int "authenticity: no forged accepts" 0 r.Mux.stats.Mux.forged_accepts;
  (* Outsider forgeries collide with data slots like jamming, so the rate-1
     pipeline keeps a small backlog; the service must still mostly deliver. *)
  check Alcotest.bool "service still works" true
    (r.Mux.stats.Mux.delivered > (r.Mux.stats.Mux.offered * 3) / 4)

(* Outsiders on top of a jammer: retransmitted frames are sealed afresh
   and still give the outsiders nothing to read or forge. *)
let pig_outsiders_blocked () =
  let r = Mux.run (base_spec ~rounds:60 ~outsiders:3 ()) ~adversary:(jammer 5L 2) in
  check Alcotest.bool "completed" true r.Mux.engine.Radio.Engine.completed;
  check Alcotest.bool "outsiders overheard traffic" true (r.Mux.stats.Mux.snooped > 0);
  check Alcotest.bool "jamming forces retransmissions" true
    (r.Mux.stats.Mux.retransmissions > 0);
  check Alcotest.int "secrecy: no outsider decryption" 0 r.Mux.stats.Mux.plaintext_leaks;
  check Alcotest.int "authenticity: no forged accepts" 0 r.Mux.stats.Mux.forged_accepts

let latency_percentiles_sane () =
  let r = Mux.run (base_spec ~rounds:60 ()) ~adversary:(jammer 5L 2) in
  let p50 = Mux.latency_percentile r 0.50 and p99 = Mux.latency_percentile r 0.99 in
  check Alcotest.bool "p50 <= p99" true (p50 <= p99);
  check Alcotest.bool "jamming delays some deliveries" true (p99 > 0)

let early_jamming_recovers () =
  let spec = base_spec ~rounds:60 () in
  let jam_window = 6 * Mux.real_rounds_per_emulated spec in
  let p = Mux.run spec ~adversary:(early_jammer ~real_rounds:jam_window ~budget:2) in
  let ps = p.Mux.stats in
  check Alcotest.bool "completed" true p.Mux.engine.Radio.Engine.completed;
  check Alcotest.int "offered in full" (24 * 60) ps.Mux.offered;
  check Alcotest.bool "jamming forces retransmissions" true
    (ps.Mux.retransmissions > 24);
  check Alcotest.int "no shedding into a generous queue" 0 ps.Mux.shed;
  check Alcotest.int "authentication holds" 0 ps.Mux.forged_accepts;
  check Alcotest.int "secrecy holds" 0 ps.Mux.plaintext_leaks;
  (* Rate 1 leaves no spare slots, so messages stalled during the jam
     window stay queued to the end — but never more than the window holds,
     and acks trail deliveries by at most the flush round's sends. *)
  check Alcotest.bool "delivered within backlog bound" true
    (ps.Mux.delivered >= ps.Mux.offered - (6 * 24));
  check Alcotest.bool "acked close behind delivered" true
    (ps.Mux.acked <= ps.Mux.delivered && ps.Mux.delivered - ps.Mux.acked <= 2 * 24)

let rpe_pinned () =
  (* At service-bench scale, 1024 logical channels over 16 physical ones
     take S + 1 = 65 real rounds per emulated round. *)
  let big = Mux.make ~key ~logical:1024 ~phys:16 ~budget:2 ~rounds:1 () in
  check Alcotest.int "rpe at 1024/16" 65 (Mux.real_rounds_per_emulated big);
  check Alcotest.int "rpe at 24/8" 4 (Mux.real_rounds_per_emulated (base_spec ()));
  (* Duplex pairing: one node per logical channel. *)
  check Alcotest.int "nodes = logical" 1024 (Mux.node_count big)

(* The flush accounting at a second shape: one flush re-send per logical
   channel, whatever the channel count, and none of it counted as loss. *)
let pig_null_flush_per_channel () =
  let r = Mux.run (base_spec ~logical:48 ~rounds:20 ()) ~adversary:null in
  let s = r.Mux.stats in
  check Alcotest.bool "completed" true r.Mux.engine.Radio.Engine.completed;
  check Alcotest.int "offered = rate * logical * rounds" (48 * 20) s.Mux.offered;
  check Alcotest.int "fully drained: delivered = offered" s.Mux.offered s.Mux.delivered;
  check Alcotest.int "fully drained: acked = delivered" s.Mux.delivered s.Mux.acked;
  check Alcotest.int "no retransmissions" 0 s.Mux.retransmissions;
  check Alcotest.int "one flush re-send per channel" 48 s.Mux.flush_resends;
  check Alcotest.int "duplicates are the flush re-sends" s.Mux.flush_resends s.Mux.duplicates

let spec_validation () =
  Alcotest.check_raises "budget >= phys"
    (Invalid_argument "Mux.make: need 0 <= budget < phys") (fun () ->
      ignore (Mux.make ~key ~logical:4 ~phys:4 ~budget:4 ~rounds:10 ()));
  Alcotest.check_raises "grace > epoch_len"
    (Invalid_argument "Mux.make: need 0 <= grace <= epoch_len") (fun () ->
      ignore (Mux.make ~key ~logical:4 ~phys:4 ~budget:1 ~rounds:10 ~epoch_len:4 ~grace:5 ()))

(* Duplex pairing needs an even number of logical channels; Repeat does not. *)
let pig_spec_validation () =
  Alcotest.check_raises "Acked needs even logical"
    (Invalid_argument "Mux.make: Acked transport needs an even number of logical channels")
    (fun () -> ignore (Mux.make ~key ~logical:5 ~phys:4 ~budget:1 ~rounds:10 ()));
  let repeat =
    Mux.make ~key ~logical:5 ~phys:4 ~budget:1
      ~transport:(Mux.Repeat { reps = 3; group = 2 }) ~rounds:10 ()
  in
  check Alcotest.int "Repeat accepts odd logical" 5 repeat.Mux.logical

(* ------------------------------------------------------------------ *)
(* Determinism and the epoch keys.                                     *)
(* ------------------------------------------------------------------ *)

let pool_sizes_byte_identical () =
  let run pool = Mux.run ?pool (base_spec ~outsiders:2 ()) ~adversary:(jammer 9L 2) in
  let solo = run None in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let r = run (Some pool) in
          check Alcotest.string
            (Printf.sprintf "render_stats identical at %d domains" domains)
            (Mux.render_stats solo) (Mux.render_stats r)))
    [ 2; 4 ]

(* The retransmission and flush paths under a pool: an early jammer forces
   re-sends, the quiet tail drains, and the rendering and delivered-output
   digest do not depend on the domain count. *)
let pig_pool_sizes_byte_identical () =
  let run pool =
    let spec = base_spec ~rounds:30 () in
    let jam_window = 4 * Mux.real_rounds_per_emulated spec in
    Mux.run ?pool spec ~adversary:(early_jammer ~real_rounds:jam_window ~budget:2)
  in
  let solo = run None in
  check Alcotest.bool "jamming forces retransmissions" true
    (solo.Mux.stats.Mux.retransmissions > 0);
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let r = run (Some pool) in
          check Alcotest.string
            (Printf.sprintf "render_stats identical at %d domains" domains)
            (Mux.render_stats solo) (Mux.render_stats r);
          check Alcotest.string
            (Printf.sprintf "output digest identical at %d domains" domains)
            (Mux.output_digest solo) (Mux.output_digest r)))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* The sharded prepare step.                                          *)
(* ------------------------------------------------------------------ *)

(* Runs [spec] with no pool and with pools of 1, 2 and 4 domains (a fresh
   adversary each time): the rendering and the output digest must not
   depend on whether, or how widely, the round's seal/open work fanned out.
   Returns the pool-less run. *)
let sharded_identical spec ~adversary =
  check Alcotest.bool "enough channels to shard" true
    (spec.Mux.logical >= Mux.shard_min_frames);
  let solo = Mux.run spec ~adversary:(adversary ()) in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          let r = Mux.run ~pool spec ~adversary:(adversary ()) in
          check Alcotest.string
            (Printf.sprintf "render_stats identical at %d domains" domains)
            (Mux.render_stats solo) (Mux.render_stats r);
          check Alcotest.string
            (Printf.sprintf "output digest identical at %d domains" domains)
            (Mux.output_digest solo) (Mux.output_digest r)))
    [ 1; 2; 4 ];
  solo

(* Jamming losses, retransmissions, shedding and outsider snooping, with
   every round's frames sealed and opened in shards. *)
let sharded_acked_jammed () =
  let spec =
    Mux.make ~key ~logical:1024 ~phys:16 ~budget:4 ~rounds:8 ~queue_cap:4 ~outsiders:8
      ~seed:5L ()
  in
  let adversary () =
    Radio.Adversary.random_jammer (Prng.Rng.create 21L) ~channels:16 ~budget:4
  in
  let s = (sharded_identical spec ~adversary).Mux.stats in
  check Alcotest.bool "retransmissions" true (s.Mux.retransmissions > 0);
  check Alcotest.bool "duplicates" true (s.Mux.duplicates > 0);
  check Alcotest.bool "snooped" true (s.Mux.snooped > 0);
  check Alcotest.int "no forged accepts" 0 s.Mux.forged_accepts;
  check Alcotest.int "no leaks" 0 s.Mux.plaintext_leaks

let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF))

(* An insider holding the group key.  At rate 0 no honest frame is ever
   sent and every receiver listens, so its spoofs land.  It recomputes the
   slot rotation to bind each frame to the channel whose receiver hears it,
   and cycles through sealing under the current epoch's key, the previous
   epoch's (honoured only within grace), the one before (stale), a wrong key
   (bad MAC) and garbage.  Frames of several epochs are thus judged, and
   opened under per-frame keys, in one round. *)
let insider spec =
  let phys = spec.Mux.phys and epoch_len = spec.Mux.epoch_len in
  let rpe = Mux.real_rounds_per_emulated spec in
  let s = rpe - 1 in
  let hop = Crypto.Prf.Keyed.create (Crypto.Sha256.digest ("mux-hop|" ^ key)) in
  let epoch_key e = Crypto.Cipher.key (Crypto.Prf.bytes ~key ~label:"mux-epoch" ~counter:e) in
  let forge ~round chan =
    let e = round / rpe and slot = round mod rpe in
    let off =
      Crypto.Prf.Keyed.below hop ~label:"mux-hop-data" ~counter:((e * s) + (slot mod s)) phys
    in
    let c = (slot mod s) + (s * ((chan - off + phys) mod phys)) in
    let kind = (round + chan) mod 5 in
    let epoch = max 0 ((e / epoch_len) - match kind with 1 -> 1 | 2 -> 2 | _ -> 0) in
    let ck = if kind = 3 then Crypto.Cipher.key "not-the-group-key" else epoch_key epoch in
    let base = Printf.sprintf "m|%d|%d|" c round in
    let body = base ^ String.make (16 - String.length base) 'x' in
    let payload = u32 0 ^ u32 c ^ u32 round ^ u32 e ^ body in
    let sealed = Crypto.Cipher.seal_keyed ck ~nonce:(Int64.of_int round) payload in
    Radio.Frame.Sealed
      (if kind = 4 then "garbage" else u32 epoch ^ Crypto.Cipher.encode sealed)
  in
  Radio.Adversary.spoofer (Prng.Rng.create 8L) ~channels:phys ~budget:spec.Mux.budget ~forge

let sharded_acked_epoch_overlap () =
  let spec =
    Mux.make ~key ~logical:1024 ~phys:16 ~budget:8 ~rounds:10 ~rate:0 ~epoch_len:2 ~grace:1
      ~seed:6L ()
  in
  let s = (sharded_identical spec ~adversary:(fun () -> insider spec)).Mux.stats in
  check Alcotest.bool "genuine spoofs delivered" true (s.Mux.delivered > 0);
  check Alcotest.bool "stale epochs rejected" true (s.Mux.stale_epoch > 0);
  check Alcotest.bool "bad frames rejected" true (s.Mux.bad_frames > 0);
  check Alcotest.int "bodies match their (channel, seq)" 0 s.Mux.forged_accepts

let sharded_repeat () =
  let spec =
    Mux.make ~key ~logical:1024 ~phys:4096 ~budget:64
      ~transport:(Mux.Repeat { reps = 2; group = 2 })
      ~rounds:6 ~outsiders:16 ~seed:7L ()
  in
  let adversary () =
    Radio.Adversary.random_jammer (Prng.Rng.create 22L) ~channels:4096 ~budget:64
  in
  let s = (sharded_identical spec ~adversary).Mux.stats in
  check Alcotest.bool "deliveries" true (s.Mux.delivered > 0);
  check Alcotest.bool "some heads missed under jamming" true
    (s.Mux.full_deliveries < s.Mux.messages_done);
  check Alcotest.int "no forged accepts" 0 s.Mux.forged_accepts

(* Every honest frame on the air, checked against the naive one-shot API:
   its clear epoch header names the epoch of the emulated round it was sent
   in, it opens under that epoch's key derived from scratch, and it does
   not open under the key of two epochs back — the one that last held the
   same parity slot of the mux's key cache. *)
let epoch_keys_match_one_shot () =
  let epoch_len = 2 and rounds = 14 in
  List.iter
    (fun transport ->
      let spec = base_spec ~transport ~rounds ~epoch_len ~grace:1 () in
      let rpe = Mux.real_rounds_per_emulated spec in
      let frames = ref [] in
      let capture (r : Radio.Transcript.round_record) =
        List.iter
          (fun (_, _, frame) ->
            match frame with
            | Radio.Frame.Sealed blob -> frames := (r.Radio.Transcript.round, blob) :: !frames
            | _ -> Alcotest.fail "honest node sent an unsealed frame")
          r.Radio.Transcript.honest_tx
      in
      let adversary =
        { Radio.Adversary.name = "recorder"; act = (fun ~round:_ -> []); observe = capture;
          observes = true }
      in
      ignore (Mux.run spec ~adversary);
      let epoch_key e = Crypto.Prf.bytes ~key ~label:"mux-epoch" ~counter:e in
      let epochs = Hashtbl.create 8 in
      List.iter
        (fun (round, blob) ->
          let e = Mux.epoch_of ~epoch_len ~now:(round / rpe) in
          check Alcotest.int "epoch header" e (Int32.to_int (String.get_int32_be blob 0));
          match Crypto.Cipher.decode_sub blob ~pos:4 with
          | None -> Alcotest.fail "frame does not decode"
          | Some sealed ->
            Hashtbl.replace epochs e ();
            check Alcotest.bool "opens under its epoch key" true
              (Crypto.Cipher.open_ ~key:(epoch_key e) sealed <> None);
            if e >= 2 then
              check Alcotest.bool "rejected under the same cache slot's older key" true
                (Crypto.Cipher.open_ ~key:(epoch_key (e - 2)) sealed = None))
        !frames;
      check Alcotest.bool "frames span at least 6 epochs" true (Hashtbl.length epochs >= 6))
    [ Mux.Acked; Mux.Repeat { reps = 3; group = 3 } ]

(* ------------------------------------------------------------------ *)
(* Repeat transport.                                                   *)
(* ------------------------------------------------------------------ *)

let repeat_transport_full_delivery () =
  let spec =
    base_spec ~transport:(Mux.Repeat { reps = 12; group = 5 }) ~logical:2 ~rounds:25
      ~queue_cap:8 ()
  in
  let r = Mux.run spec ~adversary:(jammer 13L 2) in
  check Alcotest.bool "completed" true r.Mux.engine.Radio.Engine.completed;
  check Alcotest.bool "heads retired" true (r.Mux.stats.Mux.messages_done > 0);
  check Alcotest.bool "most heads reach every receiver" true
    (r.Mux.stats.Mux.full_deliveries * 10 >= r.Mux.stats.Mux.messages_done * 8);
  check Alcotest.int "no forged accepts" 0 r.Mux.stats.Mux.forged_accepts

(* ------------------------------------------------------------------ *)
(* radio_sim service front end.                                        *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.equal (String.sub hay i ln) needle || go (i + 1)) in
  go 0

(* An invalid spec is a command-line error (cmdliner's exit 124) naming
   the problem, not an uncaught [Invalid_argument]. *)
let cli_rejects_invalid_spec () =
  List.iter
    (fun (args, problem) ->
      let out = Filename.temp_file "radio_sim" ".out" in
      let code =
        Sys.command
          (Printf.sprintf "../bin/radio_sim.exe service %s >%s 2>&1" args (Filename.quote out))
      in
      let output = In_channel.with_open_bin out In_channel.input_all in
      Sys.remove out;
      check Alcotest.int (args ^ ": exit code") 124 code;
      if not (contains output problem) || contains output "exception" then
        Alcotest.failf "%s: expected a usage error naming %S, got: %s" args problem output)
    [ ("--channels 5", "even number of logical channels");
      ("-t 16", "budget < phys") ]

let () =
  Alcotest.run "mux"
    [ ( "window",
        [ qcheck window_matches_model;
          Alcotest.test_case "duplicate and eviction" `Quick window_duplicate_after_note;
          Alcotest.test_case "width validation" `Quick window_rejects_bad_width ] );
      ( "epoch",
        [ qcheck epoch_verdict_properties;
          Alcotest.test_case "boundary cases" `Quick epoch_boundary_cases ] );
      ( "acked",
        [ Alcotest.test_case "null adversary delivers" `Quick acked_null_delivers;
          Alcotest.test_case "jamming retransmits" `Quick acked_jamming_retransmits;
          Alcotest.test_case "backpressure sheds" `Quick backpressure_sheds;
          Alcotest.test_case "outsiders blocked" `Quick outsiders_cannot_read_or_forge;
          Alcotest.test_case "latency sane" `Quick latency_percentiles_sane;
          Alcotest.test_case "spec validation" `Quick spec_validation ] );
      ( "piggybacked",
        [ Alcotest.test_case "null drains, one flush per channel" `Quick
            pig_null_flush_per_channel;
          Alcotest.test_case "real-rounds reduction pinned" `Quick rpe_pinned;
          Alcotest.test_case "early jamming recovers" `Quick early_jamming_recovers;
          Alcotest.test_case "pool sizes byte-identical" `Quick pig_pool_sizes_byte_identical;
          Alcotest.test_case "outsiders blocked" `Quick pig_outsiders_blocked;
          Alcotest.test_case "spec validation" `Quick pig_spec_validation ] );
      ( "determinism",
        [ Alcotest.test_case "pool sizes byte-identical" `Quick pool_sizes_byte_identical;
          Alcotest.test_case "epoch keys match one-shot API" `Quick epoch_keys_match_one_shot ] );
      ( "sharded",
        [ Alcotest.test_case "acked jammed byte-identical" `Quick sharded_acked_jammed;
          Alcotest.test_case "acked epoch overlap byte-identical" `Quick
            sharded_acked_epoch_overlap;
          Alcotest.test_case "repeat byte-identical" `Quick sharded_repeat ] );
      ( "repeat",
        [ Alcotest.test_case "full delivery under jamming" `Quick repeat_transport_full_delivery ] );
      ( "cli", [ Alcotest.test_case "service rejects an invalid spec" `Quick cli_rejects_invalid_spec ] ) ]
