(** Referee states shared between the nodes of one protocol run.

    In f-AME and the direct baseline every node simulates the same referee:
    its state after a move is a pure function of the sequence of feedback
    outcomes (the successful proposal channels) it has decided so far.  A
    move tree keeps one record per distinct outcome history.  The first
    node to decide an outcome computes the child record; every node that
    decides the same outcome moves to that record instead of computing its
    own replica.  A node whose outcome differs (a lying witness, a failed
    whp event) gets a branch of its own, so sharing cannot change what any
    node computes — only how often it is computed.

    The records are plain values: computing one must not perform engine
    effects.  All fibers of one engine run interleave on a single domain,
    so a tree needs no locking, but it must not be shared between runs. *)

type 'a t
(** The tree of one run; counts the records built. *)

type 'a record
(** The referee state after one outcome history. *)

val create : 'a -> 'a t
(** [create v] is a tree whose root record holds [v] (the state before
    the first move). *)

val root : 'a t -> 'a record

val value : 'a record -> 'a

val child : 'a t -> 'a record -> successes:int list -> ('a -> 'a) -> 'a record
(** [child tree r ~successes next] is the record reached from [r] by the
    outcome [successes]; it is [next (value r)] on the first call for that
    outcome and the same record on every later one. *)

val records : 'a t -> int
(** Records built so far, the root included. *)
