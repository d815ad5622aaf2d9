type outcome = {
  engine : Radio.Engine.result;
  delivered : ((int * int) * string) list;
  confirmed : (int * int) list;
  failed : (int * int) list;
  disruption_vc : int option;
  diverged : bool;
  moves : int;
  referee_states : int;
}

module Int_map = Map.Make (Int)

(* The referee's next move from one game state. *)
type move =
  | Game_over  (** no legal proposal is left *)
  | Unschedulable  (** [Schedule.Divergence]: only after a whp failure *)
  | Scheduled of { sched : Schedule.t; entry : Oracle.entry; tree_this_move : bool }

(* The referee state after one feedback history, shared by every node that
   decided that history. *)
type referee = {
  state : Game.State.t;
  surrogates : int array Int_map.t;  (** starred node -> its surrogates *)
  move : move;
  final : string Lazy.t;  (** [serialize state], forced when a node ends here *)
}

(* Canonical serialization, not [Hashtbl.hash]: the polymorphic hash is no
   cross-host fingerprint, and divergence detection only needs equality of
   the final states. *)
let serialize (state : Game.State.t) =
  let buf = Buffer.create 64 in
  List.iteri
    (fun i (v, w) ->
      if i > 0 then Buffer.add_char buf ';';
      Buffer.add_string buf (string_of_int v);
      Buffer.add_char buf '-';
      Buffer.add_string buf (string_of_int w))
    (* Dense.edges is already in ascending lexicographic order. *)
    (Rgraph.Digraph.Dense.edges state.graph);
  Buffer.add_char buf '|';
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v))
    state.starred;
  Buffer.contents buf

let default_vector ~messages ~pairs v =
  List.filter_map (fun (x, w) -> if x = v then Some (w, messages (x, w)) else None) pairs

let extract_entry entries ~dst =
  match List.assoc_opt dst entries with
  | Some body -> Some body
  | None -> List.assoc_opt (-1) entries

type feedback_mode = Sequential | Tree

type corruption = Forge_as_surrogate | Lie_as_witness | Full

let run ?(ame_params = Params.default) ?channels_used ?(feedback_mode = Sequential)
    ?vector_for ?(corrupted = []) ?(corruption = Full) ~cfg ~pairs ~messages ~adversary () =
  let forges = corruption = Forge_as_surrogate || corruption = Full in
  let lies = corruption = Lie_as_witness || corruption = Full in
  let channels = cfg.Radio.Config.channels in
  let budget = cfg.Radio.Config.t in
  let n = cfg.Radio.Config.n in
  let channels_used = Option.value channels_used ~default:channels in
  if channels_used > channels || channels_used < 1 then
    invalid_arg "Fame.run: channels_used out of range";
  if channels_used <= budget then
    invalid_arg "Fame.run: proposal size must exceed the adversary budget";
  (match feedback_mode with
   | Sequential -> ()
   | Tree ->
     if channels_used land (channels_used - 1) <> 0 then
       invalid_arg "Fame.run: tree feedback needs a power-of-two channels_used";
     if channels_used / 2 * budget > channels then
       invalid_arg "Fame.run: tree feedback needs (channels_used/2)*t <= C");
  let watchers_per_channel = Params.watchers_per_channel ame_params ~budget ~channels in
  if n < Params.nodes_required ame_params ~channels_used ~budget ~channels then
    invalid_arg
      (Printf.sprintf "Fame.run: n=%d too small; need >= %d" n
         (Params.nodes_required ame_params ~channels_used ~budget ~channels));
  let sequential_reps = Params.feedback_reps ame_params ~channels ~budget ~n in
  let tree_reps = Params.tree_reps ame_params ~n in
  List.iter
    (fun (v, w) ->
      if v < 0 || v >= n || w < 0 || w >= n then invalid_arg "Fame.run: pair out of range";
      ignore (v, w))
    pairs;
  (* Dense over the inferred endpoint range (not all of 0..n-1): game
     bitsets stay as wide as the exchange actually is. *)
  let graph = Rgraph.Digraph.Dense.of_edges pairs in
  let vector_for = Option.value vector_for ~default:(default_vector ~messages ~pairs) in
  (* Shared (runner-side) result cells; node fibers write, runner reads. *)
  let board = Oracle.create () in
  let delivered_cells : (int * int, string) Hashtbl.t = Hashtbl.create 64 in
  let confirmed_cells : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  let diverged = ref false in
  let moves_counter = ref 0 in
  let final_digests = Array.make n "" in
  (* One claimed-node workspace for every schedule build of this run: all
     node fibers interleave on the engine's domain and a build never spans
     a suspension, so the builds cannot overlap. *)
  let sched_scratch = Schedule.make_scratch () in
  (* The referee's next move from [state]: the greedy proposal and its
     schedule.  Tree feedback only fits full power-of-two proposals; a
     smaller tail proposal (still > t items) falls back to the sequential
     routine for that move. *)
  let referee state surrogates =
    let move =
      match Game.Greedy.proposal state with
      | None -> Game_over
      | Some proposal ->
        let tree_this_move = feedback_mode = Tree && List.length proposal = channels_used in
        let witness_size = if tree_this_move then budget + 1 else channels in
        let surrogates v =
          match Int_map.find_opt v surrogates with Some ws -> ws | None -> [||]
        in
        (match
           Schedule.build ~scratch:sched_scratch ~proposal ~surrogates ~n ~witness_size
             ~watchers_per_channel ()
         with
         | exception Schedule.Divergence _ -> Unschedulable
         | sched ->
           Scheduled { sched; entry = Schedule.oracle_entry sched; tree_this_move })
    in
    { state; surrogates; move; final = lazy (serialize state) }
  in
  (* The referee's answer to [successes]: items on successful channels are
     chosen, and a chosen node's watchers become its surrogates.  The
     watcher array is immutable after the build, so the surrogate record
     shares it. *)
  let next_referee sched successes r =
    let surrogates =
      List.fold_left
        (fun surrogates c ->
          match sched.Schedule.items.(c) with
          | Game.State.Node v -> Int_map.add v sched.Schedule.watchers.(c) surrogates
          | Game.State.Edge _ -> surrogates)
        r.surrogates successes
    in
    let chosen = List.map (fun c -> sched.Schedule.items.(c)) successes in
    referee (Game.State.apply r.state chosen) surrogates
  in
  (* The initial game state is identical for every node, and so is every
     later one that the same feedback outcomes lead to: one move tree per
     run holds them (see {!Move_tree}). *)
  let tree =
    Move_tree.create
      (referee
         (Game.State.create_dense ~proposal_size:channels_used ~min_proposal:(budget + 1) graph
            ~t:budget)
         Int_map.empty)
  in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let corrupt = List.mem id corrupted in
    let known = ref (Int_map.singleton id (vector_for id)) in
    let bufs = Feedback.buffers ~reps:sequential_reps in
    let rec play at =
      match (Move_tree.value at).move with
      | Game_over -> at
      | Unschedulable ->
        diverged := true;
        at
      | Scheduled { sched; entry; tree_this_move } ->
        Oracle.post board ~round:(Radio.Engine.current_round ()) entry;
        (* The role is queried once per move and reused in the successes
           pass; it is O(1) while the schedule's index is current, and the
           scan fallback gives the same role after another build. *)
        let my_role = Schedule.role_of sched id in
        (* Message-transmission phase: one round. *)
        let my_recv = ref None in
        (match my_role with
         | Schedule.Broadcast { channel; owner } ->
           (match Int_map.find_opt owner !known with
            | Some entries ->
              (* A corrupted node acting as a surrogate forges the owner's
                 vector: the receiver cannot tell (the channel is the
                 scheduled one), which is the Byzantine attack of E13. *)
              let entries =
                if forges && owner <> id && corrupt then
                  List.map (fun (dst, _) -> (dst, Printf.sprintf "FORGED-by-%d" id)) entries
                else entries
              in
              Radio.Engine.transmit ~chan:channel (Radio.Frame.Vector { owner; entries })
            | None ->
              (* Scheduled as surrogate without the vector: a divergence. *)
              diverged := true;
              Radio.Engine.idle ())
         | Schedule.Receive { channel; _ } -> my_recv := Radio.Engine.listen ~chan:channel
         | Schedule.Watch { channel } -> my_recv := Radio.Engine.listen ~chan:channel
         | Schedule.Off -> Radio.Engine.idle ());
        (* Feedback phase.  A corrupted witness lies about its channel's
           outcome — the second Byzantine attack of E13: unlike the
           surrogate forgery, this one attacks agreement itself, since
           honest witnesses of the same channel contradict the liar and
           different listeners may believe different reporters. *)
        let my_flag =
          let real = Option.is_some !my_recv in
          if lies && corrupt then not real else real
        in
        let witness_size = sched.Schedule.witness_size in
        let d =
          if tree_this_move then
            Tree_feedback.run ~my_id:id ~rng:ctx.rng ~channels ~budget ~reps:tree_reps
              ~witnesses:sched.Schedule.watchers ~witness_size ~my_flag
          else
            Feedback.run ~bufs ~my_id:id ~rng:ctx.rng ~channels ~reps:sequential_reps
              ~witnesses:sched.Schedule.watchers ~witness_size ~my_flag
        in
        let successes = List.filter (fun c -> c < Array.length sched.Schedule.items) d in
        let at =
          match successes with
          | [] ->
            (* Impossible unless a whp event failed: at most t of the
               channels_used > t channels can be disrupted. *)
            diverged := true;
            at
          | _ ->
            (* This node's own bookkeeping for each successful channel. *)
            List.iter
              (fun c ->
                match sched.Schedule.items.(c) with
                | Game.State.Node v ->
                  (match (my_role, !my_recv) with
                   | Schedule.Watch { channel }, Some (Radio.Frame.Vector { owner; entries })
                     when channel = c && owner = v ->
                     known := Int_map.add v entries !known
                   | _ -> ())
                | Game.State.Edge (v, w) ->
                  if id = w then begin
                    match !my_recv with
                    | Some (Radio.Frame.Vector { owner; entries }) when owner = v ->
                      (match extract_entry entries ~dst:w with
                       | Some body -> Hashtbl.replace delivered_cells (v, w) body
                       | None -> ())
                    | _ -> ()
                  end;
                  if id = v then Hashtbl.replace confirmed_cells (v, w) ())
              successes;
            Move_tree.child tree at ~successes (next_referee sched successes)
        in
        if id = 0 then incr moves_counter;
        if !diverged then at else play at
    in
    final_digests.(id) <- Lazy.force (Move_tree.value (play (Move_tree.root tree))).final
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary:(adversary board) node_body in
  let digest0 = final_digests.(0) in
  Array.iter (fun h -> if h <> digest0 then diverged := true) final_digests;
  let delivered = Det.bindings delivered_cells in
  let confirmed = Det.keys confirmed_cells in
  let failed =
    List.sort Rgraph.Digraph.edge_compare
      (List.filter (fun pair -> not (Hashtbl.mem delivered_cells pair)) pairs)
  in
  let disruption_vc =
    if List.length failed <= 64 then
      Some (Rgraph.Vertex_cover.minimum_size_dense (Rgraph.Digraph.Dense.of_edges failed))
    else None
  in
  { engine; delivered; confirmed; failed; disruption_vc; diverged = !diverged;
    moves = !moves_counter; referee_states = Move_tree.records tree }
