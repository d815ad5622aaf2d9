let rounds_consumed ~witnesses ~reps = Array.length witnesses * reps

(* [rank_of] without the per-call ref/closure pair: last matching index
   within the first [len] slots, or -1 when absent (witness sets are
   duplicate-free, so last = first). *)
let rec rank_scan arr id i len acc =
  if i >= len then acc
  (* radio-lint: allow partial-array-unsafe — i < len <= length checked by the caller *)
  else rank_scan arr id (i + 1) len (if Array.unsafe_get arr i = id then i else acc)

type buffers = { chans : int array; heard : Radio.Frame.t option array }

let buffers ~reps = { chans = Array.make reps 0; heard = Array.make reps None }

(* Per-phase listener step, shared by both accumulator shapes: draw all
   [reps] random hops first, then declare them as one engine listen-series.
   The rng draws are a pure per-node stream and the hop sequence never
   depends on what is heard, so drawing up front consumes the identical
   stream prefix and the engine rounds are byte-identical to [reps]
   separate [listen] calls — but the fiber suspends once per phase instead
   of once per round, which is what makes population-scale feedback cheap
   (every non-witness node listens in every feedback round). *)
let listen_phase ~rng ~channels ~reps bufs =
  for j = 0 to reps - 1 do
    (* radio-lint: allow partial-array-unsafe — j < reps = length bufs.chans *)
    Array.unsafe_set bufs.chans j (Prng.Rng.int rng channels)
  done;
  Radio.Engine.listen_series ~chans:bufs.chans ~into:bufs.heard

let validate_witness_size ~channels ~witness_size =
  if witness_size <> channels then
    invalid_arg "Feedback.run: witness prefix must have size C"

let validate_group ~witness_size g =
  if Array.length g < witness_size then
    invalid_arg "Feedback.run: witness sets must have size >= C"

let validate_buffers ~reps bufs =
  if Array.length bufs.chans <> reps || Array.length bufs.heard <> reps then
    invalid_arg "Feedback.run: listen buffers must have reps slots"

let run_list ~bufs ~my_id ~rng ~channels ~reps ~witnesses ~witness_size ~my_flag =
  let k = Array.length witnesses in
  let d = ref [] in
  for r = 0 to k - 1 do
    validate_group ~witness_size witnesses.(r);
    match rank_scan witnesses.(r) my_id 0 witness_size (-1) with
    | rank when rank >= 0 ->
      (* Witness for channel r: occupy my rank channel every round. *)
      if my_flag && not (List.mem r !d) then d := r :: !d;
      let frame = if my_flag then Radio.Frame.Feedback_true r else Radio.Frame.Feedback_false in
      for _ = 1 to reps do
        Radio.Engine.transmit ~chan:rank frame
      done
    | _ ->
      (* Listener: a random channel per round; collect <true, r>. *)
      listen_phase ~rng ~channels ~reps bufs;
      for j = 0 to reps - 1 do
        match bufs.heard.(j) with
        | Some (Radio.Frame.Feedback_true r') when r' = r ->
          if not (List.mem r !d) then d := r :: !d
        | Some _ | None -> ()
      done
  done;
  List.sort Int.compare !d

let run ~bufs ~my_id ~rng ~channels ~reps ~witnesses ~witness_size ~my_flag =
  validate_witness_size ~channels ~witness_size;
  validate_buffers ~reps bufs;
  let k = Array.length witnesses in
  if k > 62 then run_list ~bufs ~my_id ~rng ~channels ~reps ~witnesses ~witness_size ~my_flag
  else begin
    (* Hot path: accumulate the successful-channel set as a bitmask instead
       of a deduplicated list, then decode ascending (the same value the
       sorted unique list produced). *)
    let d = ref 0 in
    for r = 0 to k - 1 do
      validate_group ~witness_size witnesses.(r);
      match rank_scan witnesses.(r) my_id 0 witness_size (-1) with
      | rank when rank >= 0 ->
        if my_flag then d := !d lor (1 lsl r);
        let frame = if my_flag then Radio.Frame.Feedback_true r else Radio.Frame.Feedback_false in
        for _ = 1 to reps do
          Radio.Engine.transmit ~chan:rank frame
        done
      | _ ->
        listen_phase ~rng ~channels ~reps bufs;
        for j = 0 to reps - 1 do
          match bufs.heard.(j) with
          | Some (Radio.Frame.Feedback_true r') when r' = r -> d := !d lor (1 lsl r)
          | Some _ | None -> ()
        done
    done;
    let mask = !d in
    let rec decode r =
      if r >= k then []
      else if mask land (1 lsl r) <> 0 then r :: decode (r + 1)
      else decode (r + 1)
    in
    decode 0
  end
