open Compass_spec

(** Spec-as-implementation: reference objects derived from a spec, the
    outcome-inclusion oracle's side of refinement.

    Given a registered spec with a sequential kind, build a
    {!Compass_dstruct.Iface} factory whose operations execute the spec's
    {e abstract transitions atomically}: each operation is one RMW machine
    step whose commit function reads the object's current abstract state
    (by replaying the event graph in commit order), commits the
    transition's event with its [so] edges, and the operation returns the
    value that event carries.

    Running a client against this object is running it against the spec
    itself.  The object sits at the very top of the strength ladder: every
    explored execution satisfies even the SC-strength spec ([Sc_abs]),
    because transitions are serialised by one acq-rel RMW cell and empty
    removals commit only on the truly empty abstract state.  {!Refine}
    uses it as the reference whose outcome sets a correct implementation's
    must be included in. *)

val queue : ?spec:Libspec.t -> unit -> Compass_dstruct.Iface.queue_factory
(** defaults to {!Libspec.queue}; [q_name] is ["spec:" ^ spec name] *)

val stack : ?spec:Libspec.t -> unit -> Compass_dstruct.Iface.stack_factory
(** defaults to {!Libspec.stack} *)
