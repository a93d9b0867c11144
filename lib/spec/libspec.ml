open Compass_rmc
open Compass_event
open Compass_machine

(* First-class library specifications: the common signature, the generic
   style checker, the executable abstract machine and its commit-point
   search, and the central registry binding structures to specs.  See
   libspec.mli. *)

(* -- the spec-style ladder ---------------------------------------------------- *)

type style = So_abs | Hb_abs | Hb | Hist | Sc_abs

let style_name = function
  | So_abs -> "LATso-abs"
  | Hb_abs -> "LAThb-abs"
  | Hb -> "LAThb"
  | Hist -> "LAThist"
  | Sc_abs -> "SC-abs"

let style_of_string = function
  | "so-abs" | "LATso-abs" -> Some So_abs
  | "hb-abs" | "LAThb-abs" -> Some Hb_abs
  | "hb" | "LAThb" -> Some Hb
  | "hist" | "LAThist" -> Some Hist
  | "sc-abs" | "SC-abs" -> Some Sc_abs
  | _ -> None

let all_styles = [ Hb; So_abs; Hb_abs; Hist; Sc_abs ]

type kind = Queue | Stack | Deque

(* -- the abstract machine, executable ------------------------------------------ *)

type astate = (Value.t * int) list

type op_req = Insert of Value.t | Remove | Steal

(* One atomic transition of the sequential object.  Queues insert at the
   back and remove at the front; stacks insert and remove at the front.
   Deques keep the owner's end (the back) at the list head: the owner
   pushes and pops there like a stack, thieves steal the oldest element
   from the other end.  Queues and stacks have no thieves, so a [Steal]
   request removes as [Remove] does and never yields a steal event.
   Removal from the empty state commits the kind's empty event — the
   SC-strength empty condition, which puts the spec object at the very
   top of the ladder. *)
let transition kind st ~id req =
  match (kind, req) with
  | Queue, Insert v -> (st @ [ (v, id) ], Event.Enq v, [])
  | (Stack | Deque), Insert v -> ((v, id) :: st, Event.Push v, [])
  | Deque, Steal -> (
      match List.rev st with
      | [] -> ([], Event.EmpSteal, [])
      | (v, e) :: front_rev -> (List.rev front_rev, Event.Steal v, [ (e, id) ]))
  | Queue, (Remove | Steal) -> (
      match st with
      | [] -> ([], Event.EmpDeq, [])
      | (v, e) :: rest -> (rest, Event.Deq v, [ (e, id) ]))
  | (Stack | Deque), (Remove | Steal) -> (
      match st with
      | [] -> ([], Event.EmpPop, [])
      | (v, e) :: rest -> (rest, Event.Pop v, [ (e, id) ]))

(* The operation request an event records: insertions carry their value,
   steals (successful or empty) are [Steal], other removals [Remove].
   Events outside the sequential-kind vocabulary (exchanges, custom) have
   no request. *)
let op_of_typ = function
  | Event.Enq v | Event.Push v -> Some (Insert v)
  | Event.Deq _ | Event.Pop _ | Event.EmpDeq | Event.EmpPop -> Some Remove
  | Event.Steal _ | Event.EmpSteal -> Some Steal
  | Event.Exchange _ | Event.Custom _ -> None

(* One spec step checked against an observed result: from [st], does
   performing [op] legally produce the event [result]?  [transition] is
   deterministic, so legality is equality of the produced event type
   (which pins FIFO/LIFO removal order: a queue in state [(a, _); (b, _)]
   admits [Deq a] but not [Deq b]).  The returned so edges are the spec's
   predicted insertion-to-removal matching. *)
let step kind st ~id ~op ~result =
  let st', typ, so = transition kind st ~id op in
  if Event.typ_equal typ result then Some (st', so) else None

(* Step by observed event alone, deriving the request from its type. *)
let step_event kind st (e : Event.data) =
  match op_of_typ e.Event.typ with
  | None -> None
  | Some op -> step kind st ~id:e.Event.id ~op ~result:e.Event.typ

(* -- the commit-point search --------------------------------------------------- *)

(* Is there a total order of the graph's committed events that respects
   lhb, steps the abstract machine legally from the empty state, and
   reproduces the recorded so edges?  This is both LAThist's [to]
   (Section 3.3, Figure 4) and a forward simulation's commit-point
   assignment.  A DFS over lhb's linear extensions, memoised on (used
   set, abstract state) with the used set as a bitmask, tries candidates
   in commit order, so its first witness is the commit order itself
   whenever that order is legal. *)

let max_search_states = 200_000

type outcome = Witness of Event.data list | Breaks_at of int | Gave_up

type search = { committed : Event.data array; states : int; outcome : outcome }

exception Found of int list
exception Out_of_budget

let search kind g =
  let evs =
    Array.of_list
      (List.filter
         (fun (e : Event.data) -> op_of_typ e.Event.typ <> None)
         (Graph.events_by_cix g))
  in
  let n = Array.length evs in
  let states = ref 0 in
  let result outcome = { committed = evs; states = !states; outcome } in
  if n > 62 then result Gave_up
  else begin
    (* Observed so sources per event (sorted id list): the spec's
       predicted matching must equal them exactly. *)
    let so_in =
      Array.map
        (fun (e : Event.data) ->
          List.sort compare (Graph.so_in g e.Event.id))
        evs
    in
    (* lhb predecessors as bitmasks.  Logical views only ever contain
       already-committed events, so lhb edges point backwards in commit
       order — predecessors of position i live strictly below i. *)
    let preds = Array.make n 0 in
    for i = 0 to n - 1 do
      for j = 0 to i - 1 do
        if Graph.lhb g ~before:evs.(j).Event.id ~after:evs.(i).Event.id then
          preds.(i) <- preds.(i) lor (1 lsl j)
      done
    done;
    (* Is there a legal order covering the first [k] events?  Every
       enabled candidate step counts as one search state. *)
    let covers k =
      let full = (1 lsl k) - 1 in
      let memo = Hashtbl.create 64 in
      let rec go mask st rev_order =
        if mask = full then raise (Found rev_order);
        let key = (mask, st) in
        if not (Hashtbl.mem memo key) then begin
          Hashtbl.add memo key ();
          for i = 0 to k - 1 do
            if mask land (1 lsl i) = 0 && preds.(i) land mask = preds.(i)
            then begin
              incr states;
              if !states > max_search_states then raise Out_of_budget;
              match step_event kind st evs.(i) with
              | Some (st', so_pred)
                when List.sort compare (List.map fst so_pred) = so_in.(i) ->
                  go (mask lor (1 lsl i)) st' (i :: rev_order)
              | _ -> ()
            end
          done
        end
      in
      try
        go 0 [] [];
        `No
      with
      | Found rev_order -> `Yes rev_order
      | Out_of_budget -> `Budget
    in
    match covers n with
    | `Yes rev_order ->
        result (Witness (List.rev_map (Array.get evs) rev_order))
    | `Budget -> result Gave_up
    | `No ->
        (* Earliest breaking commit point: the smallest commit-order
           prefix no order covers.  k = n fails, so the scan terminates;
           a budget exhaustion mid-scan falls back to the full set. *)
        let rec find k =
          if k >= n then n
          else match covers k with `No -> k | _ -> find (k + 1)
        in
        result (Breaks_at (find 1 - 1))
  end

(* -- the commit-order replay (the LATabs styles) ---------------------------------

   LATabs (Sections 2.3 and 3.1) asks whether every commit point is an
   atomic step of the sequential object: fold [transition] over the
   graph's events in commit order from the empty state, and check each
   commit's result and so edge against the spec's prediction.  Strongly
   synchronised implementations (Michael-Scott) pass; the relaxed
   Herlihy-Wing queue does not (Section 3.2), which is why the paper
   introduces the abstract-state-free LAThb style.

   [require_empty] adds the SC-only condition that an empty removal commits
   on a truly empty state (SC-DEQ in Figure 2).  The RMC specs drop it: a
   thread may see the queue as empty while an enqueue it cannot see yet has
   committed (Section 2.3).

   A failed commit does not stop the replay.  A queue or stack removal that
   found an element still consumes the one the spec removes (reported as
   the wrong value, or as taken against so); every other failed commit
   leaves the state as it was.  A deque removal must match its so source
   exactly; a queue or stack removal needs the predicted edge among its
   so edges. *)

let in_vocabulary kind (typ : Event.typ) =
  match (kind, typ) with
  | Queue, (Event.Enq _ | Event.Deq _ | Event.EmpDeq)
  | (Stack | Deque), (Event.Push _ | Event.Pop _ | Event.EmpPop)
  | Deque, (Event.Steal _ | Event.EmpSteal) ->
      true
  | _ -> false

let replay ?(require_empty = false) kind g =
  let so = Graph.so g in
  let noun, holder, end_ =
    match kind with
    | Queue -> ("dequeue", "abstract queue", "head")
    | Stack -> ("pop", "abstract stack", "top")
    | Deque -> ("op", "the abstract deque", "")
  in
  let took (e : Event.data) (ins, _) =
    if kind = Deque then Graph.so_in g e.id = [ ins ]
    else List.mem (ins, e.id) so
  in
  let step (st, acc) (e : Event.data) =
    match op_of_typ e.typ with
    | Some op when in_vocabulary kind e.typ -> (
        let st', typ, pred = transition kind st ~id:e.id op in
        if Event.typ_equal typ e.typ && List.for_all (took e) pred then
          (st', acc)
        else
          match (e.typ, st) with
          | (Event.EmpDeq | Event.EmpPop | Event.EmpSteal), _ ->
              if not require_empty then (st, acc)
              else
                ( st,
                  Check.v "latabs-empty"
                    "empty %s %a commits while %s holds %d elements" noun
                    Event.pp e holder (List.length st)
                  :: acc )
          | Event.Steal _, _ ->
              ( st,
                Check.v "latabs-ws-steal"
                  "steal %a does not take the abstract front" Event.pp e
                :: acc )
          | Event.Pop _, _ when kind = Deque ->
              ( st,
                Check.v "latabs-ws-pop" "pop %a does not take the abstract back"
                  Event.pp e
                :: acc )
          | (Event.Deq v | Event.Pop v), (w, ins) :: _ ->
              ( st',
                (if Value.equal v w then
                   Check.v "latabs-match"
                     "%s %a takes abstract %s e%d but so says otherwise" noun
                     Event.pp e end_ ins
                 else
                   Check.v
                     (if kind = Queue then "latabs-fifo" else "latabs-lifo")
                     "%s %a at commit point returns %a but %s is %a" noun
                     Event.pp e Value.pp v end_ Value.pp w)
                :: acc )
          | _ ->
              ( st,
                Check.v "latabs-nonempty" "%s %a commits on an empty %s" noun
                  Event.pp e holder
                :: acc ))
    | _ -> (st, acc)
  in
  List.rev (snd (List.fold_left step ([], []) (Graph.events_by_cix g)))

(* -- the common specification signature --------------------------------------- *)

type t = {
  name : string;
  kind : kind option;
  consistent : Graph.t -> Check.violation list;
}

let spec name kind consistent = { name; kind; consistent }
let queue = spec "queue" (Some Queue) Queue_spec.consistent
let stack = spec "stack" (Some Stack) Stack_spec.consistent
let deque = spec "ws-deque" (Some Deque) Ws_spec.consistent
let exchanger = spec "exchanger" None Exchanger_spec.consistent
let spsc = spec "spsc-queue" (Some Queue) Spsc_spec.consistent

let of_kind = function Queue -> queue | Stack -> stack | Deque -> deque

(* The one generic checker.  Styles a spec has no machinery for are
   vacuous: an exchanger has no sequential kind, so [So_abs] checks
   nothing rather than failing spuriously. *)
let check style spec g : Check.violation list =
  let abs ?require_empty () =
    match spec.kind with
    | Some kind -> replay ?require_empty kind g
    | None -> []
  in
  match style with
  | So_abs -> abs ()
  | Sc_abs -> abs ~require_empty:true ()
  | Hb -> spec.consistent g
  | Hb_abs -> spec.consistent g @ abs ()
  | Hist -> (
      spec.consistent g
      @
      match spec.kind with
      | None -> []
      | Some kind -> (
          match (search kind g).outcome with
          | Witness _ -> []
          | Breaks_at _ ->
              [ Check.v "lathist" "no linearisable total order exists" ]
          | Gave_up ->
              [ Check.v "lathist-budget" "linearisation search gave up" ]))

(* -- judge glue ---------------------------------------------------------------- *)

let first_violation = function
  | [] -> Explore.Pass
  | v :: _ -> Explore.Violation (Format.asprintf "%a" Check.pp_violation v)

let ( &&& ) j1 j2 vs =
  match j1 vs with Explore.Pass -> j2 vs | other -> other

let graph_judge style spec g _ = first_violation (check style spec g)

(* -- the registry -------------------------------------------------------------- *)

type impl = ..
type impl += No_impl

type entry = {
  key : string;
  struct_name : string;
  descr : string;
  spec : t;
  impl : impl;
  ladder : (style * bool) list;
  site_prefix : string option;
  scenarios : (unit -> Explore.scenario) list;
  smoke : unit -> Explore.scenario;
  expect_violation : bool;
  refinable : bool;
}

(* Domain-safety: all [register] calls happen at module-initialisation
   time (the dstruct/client modules' top level), strictly before any
   worker domain is spawned; exploration only ever reads.  A read-only
   Hashtbl is safe to share across domains, so no lock is needed. *)
let table : (string, entry) Hashtbl.t = Hashtbl.create 16
let order : string list ref = ref []

let register e =
  if Hashtbl.mem table e.key then
    invalid_arg (Printf.sprintf "Libspec.register: duplicate key %s" e.key);
  Hashtbl.add table e.key e;
  order := e.key :: !order

let find key = Hashtbl.find_opt table key
let all () = List.rev_map (Hashtbl.find table) !order
let keys () = List.map (fun e -> e.key) (all ())
