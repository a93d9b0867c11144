open Compass_event

(** StackConsistent — the LIFO analogue of {!Queue_spec} (the paper notes
    in Section 4.1 that "the key difference is the change from FIFO to
    LIFO in consistency"). *)

val check_matches : Graph.t -> Check.violation list
val check_uniq : Graph.t -> Check.violation list

val check_lifo : Graph.t -> Check.violation list
(** STACK-LIFO (weak form): if pop [d] takes [e], any push [e'] with
    [e -lhb-> e' -lhb-> d] must already be popped when [d] commits *)

val check_emppop : Graph.t -> Check.violation list

val consistent : Graph.t -> Check.violation list
(** all of the above plus [stack-so-lhb], [stack-so-cix] and [lhb-cix] *)
