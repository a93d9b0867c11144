open Compass_event
open Compass_spec

(** Commit-order abstract-state replays written out per sequential kind:
    the oracle for the generic replay behind {!Libspec.check}'s LATabs
    styles.  Condition names and messages are the ones the generic
    replay must reproduce byte for byte. *)

val queue : ?require_empty:bool -> Graph.t -> Check.violation list
(** [latabs-fifo], [latabs-match], [latabs-nonempty], and with
    [require_empty] [latabs-empty] *)

val stack : ?require_empty:bool -> Graph.t -> Check.violation list
(** [latabs-lifo], [latabs-match], [latabs-nonempty], [latabs-empty] *)

val deque : ?require_empty:bool -> Graph.t -> Check.violation list
(** [latabs-ws-pop], [latabs-ws-steal], [latabs-empty] *)
