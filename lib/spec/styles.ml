(* The spec-style hierarchy (paper, Sections 2.3-3.3):

     LATso-abs  ⊑  LAThb-abs  ⊒  LAThb          LAThb-abs ⊑ LAThist
     (Cosmo)       (+ graphs)    (- abs state)   (+ linearisable history)

   The style type and the generic checker now live in {!Libspec} — one
   spec object per library, checked by one generic checker.  This module
   remains the per-kind convenience view (and keeps the cross-execution
   tallies used by experiment E2). *)

type style = Libspec.style = So_abs | Hb_abs | Hb | Hist | Sc_abs

let style_name = Libspec.style_name
let all_styles = Libspec.all_styles

type kind = Libspec.kind = Queue | Stack | Deque

(* Check one style on one execution's graph — the generic checker applied
   to the kind's spec instance. *)
let check style kind g : Check.violation list =
  Libspec.check style (Libspec.of_kind kind) g

(* Aggregated satisfaction counts across many executions (experiment E2).
   Atomic: a judge tallies from every worker domain of a [--jobs] search,
   and the first failing execution to land keeps its example. *)
type tally = {
  execs : int Atomic.t;
  failed : int Atomic.t;
  example : Check.violation option Atomic.t;
}

let fresh_tally () =
  { execs = Atomic.make 0; failed = Atomic.make 0; example = Atomic.make None }

let tally_one t violations =
  Atomic.incr t.execs;
  match violations with
  | [] -> ()
  | v :: _ ->
      Atomic.incr t.failed;
      ignore (Atomic.compare_and_set t.example None (Some v))

let satisfied t = Atomic.get t.failed = 0

let pp_tally ppf t =
  if satisfied t then Format.fprintf ppf "sat (%d execs)" (Atomic.get t.execs)
  else
    Format.fprintf ppf "FAIL %d/%d%a" (Atomic.get t.failed)
      (Atomic.get t.execs)
      (fun ppf -> function
        | Some v -> Format.fprintf ppf " e.g. %a" Check.pp_violation v
        | None -> ())
      (Atomic.get t.example)
