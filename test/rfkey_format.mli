open Compass_machine

(** The reads-from class key printed as text, one formatted field per
    access: the reference {!Explore.rf_class_key}'s byte encoding is
    checked against. *)

val key : outcome:Machine.outcome -> Access.t list -> string
(** the outcome, then per thread (ascending tid) each access's kind,
    location key, mode and the mo ranks of the timestamps it read and
    wrote, and each fence *)
