type spec = {
  key : string;
  channels : int;
  budget : int;
  reps : int;
  hop_prf : Crypto.Prf.Keyed.t;
  cipher : Crypto.Cipher.key;
}

let make_spec ?beta ~key ~cfg () =
  { key; channels = cfg.Radio.Config.channels; budget = cfg.Radio.Config.t;
    reps = Service.reps ?beta cfg;
    hop_prf = Crypto.Prf.Keyed.create key; cipher = Crypto.Cipher.key key }

let hop spec ~round =
  Crypto.Prf.Keyed.below spec.hop_prf ~label:"unicast-hop" ~counter:round spec.channels

type stream = {
  sender : int;
  receiver : int;
  payloads : string list;
}

type stream_result = {
  stream : stream;
  received : (int * string) list;
}

type outcome = {
  engine : Radio.Engine.result;
  results : stream_result list;
  emulated_rounds : int;
  delivered_total : int;
  offered_total : int;
}

let encode_payload ~seq msg =
  String.init 4 (fun i -> Char.chr ((seq lsr (8 * (3 - i))) land 0xFF)) ^ msg

let decode_payload payload =
  if String.length payload < 4 then None
  else begin
    let seq = ref 0 in
    for i = 0 to 3 do
      seq := (!seq lsl 8) lor Char.code payload.[i]
    done;
    Some (!seq, String.sub payload 4 (String.length payload - 4))
  end

let run_streams ~cfg ~keys ~streams ~adversary () =
  (* Endpoint disjointness: each node plays one role. *)
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      List.iter
        (fun v ->
          if Hashtbl.mem seen v then invalid_arg "Unicast.run_streams: overlapping endpoints";
          Hashtbl.add seen v ())
        [ s.sender; s.receiver ])
    streams;
  let emulated_rounds =
    List.fold_left (fun acc s -> max acc (List.length s.payloads)) 0 streams
  in
  let received_cells : (int * int, (int * string) list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace received_cells (s.sender, s.receiver) (ref [])) streams;
  let node_body (ctx : Radio.Engine.ctx) =
    let id = ctx.id in
    let my_stream_as v = List.find_opt (fun s -> v s = id) streams in
    match (my_stream_as (fun s -> s.sender), my_stream_as (fun s -> s.receiver)) with
    | Some stream, _ ->
      let spec = make_spec ~key:(keys (stream.sender, stream.receiver)) ~cfg () in
      List.iteri
        (fun seq payload ->
          for _ = 1 to spec.reps do
            let round = Radio.Engine.current_round () in
            let sealed =
              Crypto.Cipher.seal_keyed spec.cipher ~nonce:(Int64.of_int round)
                (encode_payload ~seq payload)
            in
            Radio.Engine.transmit ~chan:(hop spec ~round)
              (Radio.Frame.Sealed (Crypto.Cipher.encode sealed))
          done)
        stream.payloads;
      (* Pad to the longest stream so all fibers stay in lockstep. *)
      for _ = List.length stream.payloads + 1 to emulated_rounds do
        for _ = 1 to spec.reps do
          Radio.Engine.idle ()
        done
      done
    | None, Some stream ->
      let spec = make_spec ~key:(keys (stream.sender, stream.receiver)) ~cfg () in
      let cell = Hashtbl.find received_cells (stream.sender, stream.receiver) in
      for _er = 0 to emulated_rounds - 1 do
        for _ = 1 to spec.reps do
          let round = Radio.Engine.current_round () in
          match Radio.Engine.listen ~chan:(hop spec ~round) with
          | Some (Radio.Frame.Sealed blob) ->
            (match Crypto.Cipher.decode blob with
             | Some sealed ->
               (match Crypto.Cipher.open_keyed spec.cipher sealed with
                | Some payload ->
                  (match decode_payload payload with
                   | Some (seq, msg) ->
                     if not (List.mem_assoc seq !cell) then cell := (seq, msg) :: !cell
                   | None -> ())
                | None -> ())
             | None -> ())
          | Some _ | None -> ()
        done
      done
    | None, None ->
      for _ = 1 to emulated_rounds * Service.reps cfg do
        Radio.Engine.idle ()
      done
  in
  let engine = Radio.Engine.run_nodes cfg ~adversary node_body in
  let results =
    List.map
      (fun s ->
        let cell = Hashtbl.find received_cells (s.sender, s.receiver) in
        { stream = s;
          received =
            List.sort
              (fun (a, x) (b, y) -> if a <> b then Int.compare a b else String.compare x y)
              !cell })
      streams
  in
  let delivered_total = List.fold_left (fun acc r -> acc + List.length r.received) 0 results in
  let offered_total = List.fold_left (fun acc s -> acc + List.length s.payloads) 0 streams in
  { engine; results; emulated_rounds; delivered_total; offered_total }
