(** The COMPASS specification framework, operationalised: consistency
    conditions for queues ({!Queue_spec}), stacks ({!Stack_spec}) and
    exchangers ({!Exchanger_spec}); the satisfaction tallies ({!Styles});
    and {!Libspec} — first-class spec objects, the generic style checker,
    the executable abstract machine behind spec-as-implementation, the
    commit-point search that decides linearisable histories (the LAThist
    style of Section 3.3) and forward simulation, and the central
    structure registry. *)

module Check = Check
module Libspec = Libspec
module Queue_spec = Queue_spec
module Stack_spec = Stack_spec
module Exchanger_spec = Exchanger_spec
module Ws_spec = Ws_spec
module Spsc_spec = Spsc_spec
module Styles = Styles
