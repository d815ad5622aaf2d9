let u16 n = String.init 2 (fun i -> Char.chr ((n lsr (8 * (1 - i))) land 0xFF))
let u32 n = String.init 4 (fun i -> Char.chr ((n lsr (8 * (3 - i))) land 0xFF))

let read_u16 s pos = (Char.code s.[pos] lsl 8) lor Char.code s.[pos + 1]

let read_u32 s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let fragment ~mtu ~msg_id message =
  if mtu <= 0 then invalid_arg "Session.fragment: mtu must be positive";
  if msg_id < 0 then invalid_arg "Session.fragment: negative msg_id";
  let len = String.length message in
  let count = max 1 ((len + mtu - 1) / mtu) in
  if count > 0xFFFF then invalid_arg "Session.fragment: message too large for mtu";
  List.init count (fun index ->
      let piece = String.sub message (index * mtu) (min mtu (len - (index * mtu))) in
      "F" ^ u32 msg_id ^ u16 index ^ u16 count ^ piece)

let decode_fragment payload =
  if String.length payload < 9 || payload.[0] <> 'F' then None
  else begin
    let msg_id = read_u32 payload 1 in
    let index = read_u16 payload 5 in
    let count = read_u16 payload 7 in
    if msg_id < 0 || count = 0 || index >= count then None
    else Some (msg_id, index, count, String.sub payload 9 (String.length payload - 9))
  end

type partial = { count : int; pieces : (int, string) Hashtbl.t }

type reassembler = {
  partials : (int * int, partial) Hashtbl.t;  (* (sender, msg_id) *)
  completed : (int * int, unit) Hashtbl.t;
}

let create_reassembler () = { partials = Hashtbl.create 16; completed = Hashtbl.create 16 }

let feed r ~sender payload =
  match decode_fragment payload with
  | None -> None
  | Some (msg_id, index, count, piece) ->
    let key = (sender, msg_id) in
    if Hashtbl.mem r.completed key then None
    else begin
      let partial =
        match Hashtbl.find_opt r.partials key with
        | Some p when p.count = count -> p
        | Some _ ->
          (* Conflicting fragment count for the same id: start over (can
             only happen with a malformed sender; frames are MACed). *)
          let p = { count; pieces = Hashtbl.create 8 } in
          Hashtbl.replace r.partials key p;
          p
        | None ->
          let p = { count; pieces = Hashtbl.create 8 } in
          Hashtbl.replace r.partials key p;
          p
      in
      if not (Hashtbl.mem partial.pieces index) then
        Hashtbl.replace partial.pieces index piece;
      if Hashtbl.length partial.pieces = partial.count then begin
        Hashtbl.remove r.partials key;
        Hashtbl.replace r.completed key ();
        let buf = Buffer.create 64 in
        for i = 0 to partial.count - 1 do
          Buffer.add_string buf (Hashtbl.find partial.pieces i)
        done;
        Some (msg_id, Buffer.contents buf)
      end
      else None
    end

let pending r =
  List.map
    (fun ((sender, msg_id), partial) ->
      (sender, msg_id, Hashtbl.length partial.pieces, partial.count))
    (Det.bindings r.partials)

type delivery = {
  sender : int;
  msg_id : int;
  message : string;
  completed_by : int list;
}

type outcome = {
  engine : Radio.Engine.result;
  deliveries : delivery list;
  emulated_rounds : int;
  fragments_sent : int;
}

let run_workload ~cfg ~key_holders ~spec ~mtu ~sends ~adversary () =
  let n = cfg.Radio.Config.n in
  (* Lay out the schedule: message i gets msg_id i and a contiguous block of
     emulated rounds, one per fragment. *)
  let plan =
    List.mapi (fun i (sender, message) -> (i, sender, message, fragment ~mtu ~msg_id:i message)) sends
  in
  let schedule =
    List.concat_map (fun (_, sender, _, frags) -> List.map (fun f -> (sender, f)) frags) plan
  in
  let emulated_rounds = List.length schedule in
  let completed : (int, (int * int) list) Hashtbl.t = Hashtbl.create 16 in
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let holds_key = List.mem id key_holders in
    let reassembler = create_reassembler () in
    List.iteri
      (fun er (sender, frag_payload) ->
        if id = sender then Service.broadcast spec ~sender:id ~seq:er frag_payload
        else if holds_key then begin
          match Service.recv spec with
          | Some (from, _, payload) ->
            (match feed reassembler ~sender:from payload with
             | Some (msg_id, _message) ->
               let existing = Option.value (Hashtbl.find_opt completed id) ~default:[] in
               Hashtbl.replace completed id ((from, msg_id) :: existing)
             | None -> ())
          | None -> ()
        end
        else Service.idle spec)
      schedule
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary node_body in
  let deliveries =
    List.map
      (fun (msg_id, sender, message, _) ->
        let completed_by =
          List.sort Int.compare
            (List.filter
               (fun id ->
                 id <> sender
                 && List.mem (sender, msg_id)
                      (Option.value (Hashtbl.find_opt completed id) ~default:[]))
               (List.init n Fun.id))
        in
        { sender; msg_id; message; completed_by })
      plan
  in
  { engine; deliveries; emulated_rounds;
    fragments_sent = List.length schedule }
