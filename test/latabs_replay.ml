open Compass_rmc
open Compass_event
open Compass_spec

(* The commit-order abstract-state replays, one hand-written replay per
   sequential kind: the reference the generic replay behind
   [Libspec.check]'s LATabs styles is compared against (test_registry's
   differential battery).  Each folds the graph's events in commit order
   while maintaining the abstract object, and checks every commit is an
   atomic update of it.  [require_empty] adds the SC-only condition that
   an empty removal commits on a truly empty state (SC-DEQ in Figure 2). *)

(* The queue: enqueue at the back, dequeue from the front. *)
let queue ?(require_empty = false) g =
  let events = Graph.events_by_cix g in
  let rec go vs acc = function
    | [] -> List.rev acc
    | (e : Event.data) :: rest -> (
        match e.typ with
        | Event.Enq v -> go (vs @ [ (v, e.id) ]) acc rest
        | Event.Deq v -> (
            match vs with
            | (w, e_id) :: vs' ->
                let acc =
                  if not (Value.equal v w) then
                    Check.v "latabs-fifo"
                      "dequeue %a at commit point returns %a but head is %a"
                      Event.pp e Value.pp v Value.pp w
                    :: acc
                  else if not (List.mem (e_id, e.id) (Graph.so g)) then
                    Check.v "latabs-match"
                      "dequeue %a takes abstract head e%d but so says \
                       otherwise"
                      Event.pp e e_id
                    :: acc
                  else acc
                in
                go vs' acc rest
            | [] ->
                go vs
                  (Check.v "latabs-nonempty"
                     "dequeue %a commits on an empty abstract queue" Event.pp e
                  :: acc)
                  rest)
        | Event.EmpDeq ->
            let acc =
              if require_empty && vs <> [] then
                Check.v "latabs-empty"
                  "empty dequeue %a commits while abstract queue holds %d \
                   elements"
                  Event.pp e (List.length vs)
                :: acc
              else acc
            in
            go vs acc rest
        | _ -> go vs acc rest)
  in
  go [] [] events

(* The stack: push and pop at the top. *)
let stack ?(require_empty = false) g =
  let events = Graph.events_by_cix g in
  let rec go vs acc = function
    | [] -> List.rev acc
    | (e : Event.data) :: rest -> (
        match e.typ with
        | Event.Push v -> go ((v, e.id) :: vs) acc rest
        | Event.Pop v -> (
            match vs with
            | (w, e_id) :: vs' ->
                let acc =
                  if not (Value.equal v w) then
                    Check.v "latabs-lifo"
                      "pop %a at commit point returns %a but top is %a"
                      Event.pp e Value.pp v Value.pp w
                    :: acc
                  else if not (List.mem (e_id, e.id) (Graph.so g)) then
                    Check.v "latabs-match"
                      "pop %a takes abstract top e%d but so says otherwise"
                      Event.pp e e_id
                    :: acc
                  else acc
                in
                go vs' acc rest
            | [] ->
                go vs
                  (Check.v "latabs-nonempty"
                     "pop %a commits on an empty abstract stack" Event.pp e
                  :: acc)
                  rest)
        | Event.EmpPop ->
            let acc =
              if require_empty && vs <> [] then
                Check.v "latabs-empty"
                  "empty pop %a commits while abstract stack holds %d elements"
                  Event.pp e (List.length vs)
                :: acc
              else acc
            in
            go vs acc rest
        | _ -> go vs acc rest)
  in
  go [] [] events

(* The deque as a sequence in push order: the owner pops the back,
   thieves steal the front. *)
let deque ?(require_empty = false) g =
  let events = Graph.events_by_cix g in
  let mate d_id = match Graph.so_in g d_id with [ e ] -> Some e | _ -> None in

  let rec go vs acc = function
    | [] -> List.rev acc
    | (e : Event.data) :: rest -> (
        match e.typ with
        | Event.Push v -> go (vs @ [ (v, e.id) ]) acc rest
        | Event.Pop v -> (
            match List.rev vs with
            | (w, ins) :: front_rev
              when Value.equal v w && mate e.id = Some ins ->
                go (List.rev front_rev) acc rest
            | _ ->
                go vs
                  (Check.v "latabs-ws-pop"
                     "pop %a does not take the abstract back" Event.pp e
                  :: acc)
                  rest)
        | Event.Steal v -> (
            match vs with
            | (w, ins) :: vs' when Value.equal v w && mate e.id = Some ins ->
                go vs' acc rest
            | _ ->
                go vs
                  (Check.v "latabs-ws-steal"
                     "steal %a does not take the abstract front" Event.pp e
                  :: acc)
                  rest)
        | Event.EmpPop | Event.EmpSteal ->
            let acc =
              if require_empty && vs <> [] then
                Check.v "latabs-empty"
                  "empty op %a commits while the abstract deque holds %d \
                   elements"
                  Event.pp e (List.length vs)
                :: acc
              else acc
            in
            go vs acc rest
        | _ -> go vs acc rest)
  in
  go [] [] events
