open Compass_rmc
open Compass_event
open Compass_machine

(* Implementation-generic handles.

   Clients and checkers are written against these records of operations and
   take a [factory] choosing the implementation — the operational
   counterpart of the paper's modularity: a client verified against a spec
   works with any implementation satisfying it, and our experiments run
   each client against several implementations (Michael-Scott vs
   Herlihy-Wing, Treiber vs elimination stack). *)

type queue = {
  q_graph : Graph.t;
  enq : Value.t -> unit Prog.t;
      (** enqueue; commits an [Enq v] event at its commit point *)
  deq : unit -> Value.t Prog.t;
      (** dequeue; returns the value, or [Value.Null] for the empty case;
          commits [Deq v] or [EmpDeq] *)
}

type stack = {
  s_graph : Graph.t;
  push : Value.t -> unit Prog.t;
  pop : unit -> Value.t Prog.t;  (** [Value.Null] for the empty case *)
}

type exchanger = {
  x_graph : Graph.t;
  exchange : Value.t -> Value.t Prog.t;
      (** [exchange v] gives [v] (which must not be [Null]) and returns the
          partner's value, or [Null] if the exchange failed (the paper's
          bottom); commits [Exchange (v, v')] — matched pairs are committed
          atomically together by the helper (Section 4.2) *)
}

(* Factories: builders run during a machine's setup phase. *)
type queue_factory = { q_name : string; make_queue : Machine.t -> name:string -> queue }
type stack_factory = { s_name : string; make_stack : Machine.t -> name:string -> stack }
