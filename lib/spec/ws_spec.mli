open Compass_event

(** WsDequeConsistent — consistency conditions for single-owner
    work-stealing deques in the framework's style (experiment E8; the
    paper's Section 6 names work-stealing queues as future work).

    Conditions: unique takes ([ws-uniq]), single-owner discipline
    ([ws-owner]), steals take pushes in push order ([ws-steal-order]), the
    owner pops the newest visible untaken push ([ws-owner-lifo]), and a
    {e reservation-aware} empty condition ([ws-empty]): the justifying
    take may commit after the empty operation, because the owner's bottom
    decrement reserves an element before its pop commits — the model
    checker refuted the strict (queue-style) version. *)

val check_matches : Graph.t -> Check.violation list
val check_uniq : Graph.t -> Check.violation list
val check_owner : Graph.t -> Check.violation list
val check_steal_order : Graph.t -> Check.violation list
val check_owner_lifo : Graph.t -> Check.violation list
val check_empty : Graph.t -> Check.violation list

val consistent : Graph.t -> Check.violation list
(** all of the above plus [ws-so-lhb], [ws-so-cix] and [lhb-cix] *)
