(** The direct-exchange baseline: message exchange {e without} surrogates.

    Section 5's first insight alone — schedule node-disjoint sender/receiver
    pairs on the t+1 channels, each source transmitting its own message —
    authenticates but achieves only 2t-disruptability: the protocol must
    stop once no more than t node-disjoint edges remain schedulable, and the
    adversary can maneuver it into leaving a residue of t edge-disjoint
    triangles (vertex cover 2t).  Experiments E6/E12 measure this gap
    against f-AME.

    Shares the radio mechanics of f-AME (same witness/feedback machinery),
    differing only in scheduling and the absence of surrogate recruitment.
    Like {!Fame.run}, it computes each move's batch and schedule once per
    feedback history through a {!Move_tree}, not once per node. *)

type outcome = {
  engine : Radio.Engine.result;
  delivered : ((int * int) * string) list;
  failed : (int * int) list;
  disruption_vc : int option;
  diverged : bool;
  moves : int;
}

val run :
  ?ame_params:Params.t ->
  ?channels_used:int ->
  cfg:Radio.Config.t ->
  pairs:(int * int) list ->
  messages:(int * int -> string) ->
  adversary:(Oracle.t -> Radio.Adversary.t) ->
  unit ->
  outcome
(** Terminates when fewer than t+1 node-disjoint undelivered edges remain
    (the adversary could then block every scheduled channel forever). *)
