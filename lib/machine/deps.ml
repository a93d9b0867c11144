open Compass_rmc

(* Dependency relations, shared by the race detector and the DPOR engine.

   Two views of the same idea live here:

   - {!sweep}: the RC11-synchronisation vector-clock sweep over recorded
     access logs.  This used to be private to the analysis-side race
     detector ({!Compass_analysis.Races}); it moved here unchanged so the
     DPOR layer and the race detector share one happens-before engine.

   - {!analyze_steps}: the Mazurkiewicz-trace order over a machine-step
     sequence, built from the same footprint independence relation the
     sleep sets use.  This is the dependency relation source-DPOR needs:
     steps of the same thread are ordered by program order, steps of
     different threads only by chains of dependent (non-commuting)
     steps, and a {e reversible race} is a dependent pair with no
     intermediate path — exactly the pairs whose reversal reaches a new
     Mazurkiewicz trace. *)

(* -- footprints --------------------------------------------------------------

   The footprint of a thread's next operation, abstracted to what matters
   for commutation with another thread's step: the location it reads or
   writes, or [FLocal] (no shared effect: yields, thread ids, non-SC
   fences, which only move the thread's own view) or [FGlobal]
   (conservatively dependent on everything: allocation renumbers blocks,
   SC fences join the machine-global SC view).

   Two steps are independent when running them in either order yields the
   same machine state up to event-id renaming: accesses to different
   locations commute, and two reads of the same location commute because
   reads never change a history.

   Non-atomic accesses get their own variants ([FReadNa], [FWriteNa]).
   Independence is identical to their atomic counterparts — commutation
   only cares about the location and read/write polarity — but the
   reads-from–aware reduction must be able to tell them apart: the
   machine's na-race fault detection is order-sensitive, so only
   atomic-write/atomic-read race reversals may be pruned as
   rf-equivalent. *)

type footprint =
  | FRead of Loc.t
  | FWrite of Loc.t
  | FReadNa of Loc.t
  | FWriteNa of Loc.t
  | FLocal
  | FGlobal

let independent a b =
  match (a, b) with
  | FGlobal, _ | _, FGlobal -> false
  | FLocal, _ | _, FLocal -> true
  | (FRead _ | FReadNa _), (FRead _ | FReadNa _) -> true
  | ( (FRead la | FWrite la | FReadNa la | FWriteNa la),
      (FRead lb | FWrite lb | FReadNa lb | FWriteNa lb) ) ->
      not (Loc.equal la lb)

let pp_footprint ppf = function
  | FRead l -> Format.fprintf ppf "R%a" Loc.pp l
  | FWrite l -> Format.fprintf ppf "W%a" Loc.pp l
  | FReadNa l -> Format.fprintf ppf "Rna%a" Loc.pp l
  | FWriteNa l -> Format.fprintf ppf "Wna%a" Loc.pp l
  | FLocal -> Format.pp_print_string ppf "local"
  | FGlobal -> Format.pp_print_string ppf "global"

(* -- the RC11-synchronisation sweep over access logs -------------------------

   Recomputes happens-before with a vector-clock forward sweep — a
   genuinely different algorithm from {!Rc11}'s explicit transitive
   closure over (po ∪ asw ∪ sw) edge lists.  The sweep models RC11
   synchronisation (not the machine's operational views — rf alone never
   creates hb):

   - each access bumps its thread's own clock component and snapshots
     the thread clock; hb(a, b) iff b's snapshot includes a's stamp;
   - a write publishes a clock on its message: its own snapshot if it
     releases, the clock captured at the last release fence if it is
     atomic but relaxed, and bottom if non-atomic.  Updates additionally
     inherit the clock of the message they read — rf chains among
     updates, i.e. release sequences;
   - an acquire read joins the message clock into the thread clock; a
     relaxed atomic read parks it in a pending-acquire clock that the
     next acquire fence joins in; non-atomic reads never synchronise;
   - a release fence snapshots the thread clock for later relaxed
     writes; an SC fence additionally joins and updates one global
     clock, totally ordering SC fences;
   - fork/join edges (the asw of {!Rc11}): a spawned thread's first
     access joins the setup pseudo-thread's clock, and a post-join
     setup access joins every thread's clock.  (Setup runs solo,
     strictly before spawn and after join, so the eager join is exact.) *)

let mode_geq_rel = function Mode.Rel | Mode.AcqRel -> true | _ -> false
let mode_geq_acq = function Mode.Acq | Mode.AcqRel -> true | _ -> false
let mode_atomic = function Mode.Na -> false | _ -> true

let rel_fence = function
  | Mode.F_rel | Mode.F_acqrel | Mode.F_sc -> true
  | _ -> false

let acq_fence = function
  | Mode.F_acq | Mode.F_acqrel | Mode.F_sc -> true
  | _ -> false

(* The sweep.  Returns [knows] : aid -> aid -> bool, the hb predicate
   (irreflexive use only — callers never ask [knows a a]). *)
let sweep items =
  let n = Array.length items in
  Array.iteri (fun i a -> assert (Access.aid a = i)) items;
  let max_tid = Array.fold_left (fun m a -> max m (Access.tid a)) (-1) items in
  let nt = max_tid + 2 in
  (* thread slots: index 0 is the setup pseudo-thread (tid -1) *)
  let ix tid = tid + 1 in
  let bottom () = Array.make nt 0 in
  let join dst src =
    Array.iteri (fun i v -> if v > dst.(i) then dst.(i) <- v) src
  in
  let cur = Array.init nt (fun _ -> bottom ()) in
  let dacq = Array.init nt (fun _ -> bottom ()) in
  let frel = Array.init nt (fun _ -> bottom ()) in
  let sc = ref (bottom ()) in
  let seq = Array.make nt 0 in
  let started = Array.make nt false in
  let msg : (Loc.t * Timestamp.t, int array) Hashtbl.t = Hashtbl.create 64 in
  let snap = Array.make n [||] in
  let stamp = Array.make n (0, 0) in
  Array.iter
    (fun a ->
      let tid = Access.tid a in
      let t = ix tid in
      (* fork: a spawned thread's first access inherits the setup clock. *)
      if not started.(t) then begin
        started.(t) <- true;
        if tid >= 0 then join cur.(t) cur.(ix (-1))
      end;
      (* join: a post-join setup access inherits every thread's clock. *)
      if tid = -1 then
        Array.iteri (fun u c -> if u <> t then join cur.(t) c) cur;
      match a with
      | Access.Access r ->
          let rclock =
            match r.read_ts with
            | Some ts -> Hashtbl.find_opt msg (r.loc, ts)
            | None -> None
          in
          (match rclock with
          | Some c when mode_geq_acq r.mode -> join cur.(t) c
          | Some c when mode_atomic r.mode -> join dacq.(t) c
          | _ -> () (* non-atomic reads never synchronise *));
          seq.(t) <- seq.(t) + 1;
          cur.(t).(t) <- seq.(t);
          stamp.(r.aid) <- (t, seq.(t));
          snap.(r.aid) <- Array.copy cur.(t);
          (match r.write_ts with
          | Some wts ->
              let published = bottom () in
              if mode_geq_rel r.mode then join published snap.(r.aid)
              else if mode_atomic r.mode then join published frel.(t);
              (* updates inherit the read message's clock: release
                 sequences as rf chains among updates *)
              (match (r.kind, rclock) with
              | Access.Update, Some c -> join published c
              | _ -> ());
              Hashtbl.replace msg (r.loc, wts) published
          | None -> ())
      | Access.Fence f ->
          if acq_fence f.fence then begin
            join cur.(t) dacq.(t);
            dacq.(t) <- bottom ()
          end;
          if f.fence = Mode.F_sc then join cur.(t) !sc;
          seq.(t) <- seq.(t) + 1;
          cur.(t).(t) <- seq.(t);
          stamp.(f.aid) <- (t, seq.(t));
          snap.(f.aid) <- Array.copy cur.(t);
          if rel_fence f.fence then frel.(t) <- Array.copy cur.(t);
          if f.fence = Mode.F_sc then sc := Array.copy cur.(t))
    items;
  fun a b ->
    let ta, sa = stamp.(a) in
    Array.length snap.(b) > 0 && snap.(b).(ta) >= sa

(* -- Mazurkiewicz order over machine-step sequences --------------------------

   Input: the (tid, footprint) sequence of the concurrent phase's machine
   steps, in execution order.  Two steps are dependent when they belong
   to the same thread (program order) or their footprints do not commute.
   The trace order is the transitive closure of dependency restricted to
   execution order; it is computed with one vector clock per step, so
   [hb] is an O(1) stamp comparison afterwards.

   Step j's clock is the join of the clocks of the earlier steps it
   depends on.  One forward pass keeps those joins accumulated by the
   classes {!independent} distinguishes: each thread's last clock (which
   covers its earlier steps, by program order), the join of all [FGlobal]
   steps, the join of all steps, and per location the join of its reads
   and of its writes.  Every step depends on its thread and on every
   [FGlobal] step; an [FGlobal] step on every step, a read on its
   location's writes, a write on its location's reads and writes, and an
   [FLocal] step on nothing more. *)

type steps = {
  s_tid : int array;
  s_fp : footprint array;
  s_clock : int array array;  (** clock of step i, indexed by tid *)
  s_seq : int array;  (** per-step own-thread sequence number *)
}

let join (dst : int array) (src : int array) =
  for t = 0 to Array.length dst - 1 do
    if src.(t) > dst.(t) then dst.(t) <- src.(t)
  done

let analyze_steps steps =
  let n = Array.length steps in
  let s_tid = Array.map fst steps and s_fp = Array.map snd steps in
  let max_tid = Array.fold_left max 0 s_tid in
  let nt = max_tid + 1 in
  let s_clock = Array.make n [||] in
  let s_seq = Array.make n 0 in
  let cur_seq = Array.make nt 0 in
  let last = Array.make nt (Array.make nt 0) in
  let globals = Array.make nt 0 and all = Array.make nt 0 in
  (* per location, in first-touch order: its key and the joins of its
     reads and of its writes *)
  let loc_key = Array.make n 0 and reads = Array.make n [||] in
  let writes = Array.make n [||] and locs = ref 0 in
  let slot l =
    let k = Loc.key l in
    let s = ref 0 in
    while !s < !locs && loc_key.(!s) <> k do incr s done;
    if !s = !locs then begin
      loc_key.(!s) <- k;
      reads.(!s) <- Array.make nt 0;
      writes.(!s) <- Array.make nt 0;
      incr locs
    end;
    !s
  in
  for j = 0 to n - 1 do
    let t = s_tid.(j) in
    let c = Array.copy last.(t) in
    join c globals;
    (* [feeds]: the accumulated join this step's clock enters besides
       [all] ([||] for [FLocal], where joining into it is a no-op) *)
    let feeds =
      match s_fp.(j) with
      | FGlobal ->
          join c all;
          globals
      | FLocal -> [||]
      | FRead l | FReadNa l ->
          let s = slot l in
          join c writes.(s);
          reads.(s)
      | FWrite l | FWriteNa l ->
          let s = slot l in
          join c reads.(s);
          join c writes.(s);
          writes.(s)
    in
    cur_seq.(t) <- cur_seq.(t) + 1;
    c.(t) <- cur_seq.(t);
    join feeds c;
    join all c;
    last.(t) <- c;
    s_clock.(j) <- c;
    s_seq.(j) <- cur_seq.(t)
  done;
  { s_tid; s_fp; s_clock; s_seq }

(* hb i j: step i is trace-ordered before step j (i < j in execution
   order; the predicate is about the partial order, not mere position). *)
let hb s i j = i < j && s.s_clock.(j).(s.s_tid.(i)) >= s.s_seq.(i)

(* A reversible race: a dependent pair of different-thread steps with no
   intermediate trace path — reversing it reaches a different
   Mazurkiewicz trace, so DPOR must schedule an alternative at the
   earlier step's pre-state.  [from] bounds the later step: only races
   whose {e later} member is at index >= [from] are reported (the
   explorer has already handled races wholly inside a replayed
   prefix). *)
let races ?(from = 0) s =
  let n = Array.length s.s_tid in
  let out = ref [] in
  for j = max 1 from to n - 1 do
    for i = 0 to j - 1 do
      if
        s.s_tid.(i) <> s.s_tid.(j)
        && (not (independent s.s_fp.(i) s.s_fp.(j)))
        && hb s i j
      then begin
        (* direct only: no w strictly between with i ->hb w ->hb j *)
        let direct = ref true in
        let w = ref (i + 1) in
        while !direct && !w < j do
          if hb s i !w && hb s !w j then direct := false;
          incr w
        done;
        if !direct then out := (i, j) :: !out
      end
    done
  done;
  List.rev !out

let step_tid s i = s.s_tid.(i)
let step_fp s i = s.s_fp.(i)
let n_steps s = Array.length s.s_tid
