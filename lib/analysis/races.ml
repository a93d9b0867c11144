open Compass_rmc
open Compass_machine
open Compass_util

(* Per-site race detection over recorded access logs.

   The detector recomputes happens-before with the vector-clock forward
   sweep below — a genuinely different algorithm from {!Rc11}'s explicit
   transitive closure over (po ∪ asw ∪ sw) edge lists — and flags
   conflicting access pairs (same location, at least one write, at least
   one non-atomic, different threads) that neither direction of hb
   orders.  Because the two algorithms share no code beyond the access
   log, comparing their race sets on every execution is a meaningful
   differential check; {!differential} does exactly that against
   {!Rc11.races}. *)

(* -- the RC11-synchronisation sweep over access logs -------------------------

   The sweep models RC11 synchronisation (not the machine's operational
   views — rf alone never creates hb):

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


let is_write = function
  | Access.Access { kind = Access.Store | Access.Update; _ } -> true
  | _ -> false

let is_na = function
  | Access.Access { mode = Mode.Na; _ } -> true
  | _ -> false

let detect accesses =
  let items = Array.of_list accesses in
  let knows = sweep items in
  let n = Array.length items in
  let out = ref [] in
  for a = 0 to n - 1 do
    for b = a + 1 to n - 1 do
      match (items.(a), items.(b)) with
      | Access.Access ia, Access.Access ib
        when Loc.equal ia.loc ib.loc
             && (is_write items.(a) || is_write items.(b))
             && (is_na items.(a) || is_na items.(b))
             && ia.tid <> ib.tid ->
          if not (knows a b || knows b a) then out := (a, b) :: !out
      | _ -> ()
    done
  done;
  List.rev !out

let differential accesses =
  let mine = List.sort compare (detect accesses) in
  let oracle = List.sort compare (Rc11.races accesses) in
  if mine = oracle then []
  else
    let missed = List.filter (fun p -> not (List.mem p mine)) oracle in
    let spurious = List.filter (fun p -> not (List.mem p oracle)) mine in
    List.map
      (fun (a, b) ->
        Printf.sprintf "vector-clock detector missed rc11 race (%d, %d)" a b)
      missed
    @ List.map
        (fun (a, b) ->
          Printf.sprintf "vector-clock detector reports spurious race (%d, %d)"
            a b)
        spurious

(* -- per-site aggregation ----------------------------------------------------- *)

let site_key a =
  match Access.site a with
  | Some s -> s
  | None -> (
      match a with
      | Access.Access r ->
          Format.asprintf "unlabeled@%a[tid %d]" Loc.pp r.loc r.tid
      | Access.Fence f -> Printf.sprintf "unlabeled-fence[tid %d]" f.tid)

type entry = {
  mutable pairs : int;  (** racing pairs at this site pair, all executions *)
  mutable execs : int;  (** executions with at least one such pair *)
  mutable last_exec : int;
  mutable example : string;
}

type agg = {
  mutable executions : int;
  mutable racy_executions : int;
  mutable total_pairs : int;
  mutable mismatch_count : int;
  mutable mismatches : string list;  (** first few, newest first *)
  tbl : (string * string, entry) Hashtbl.t;
  mutable order : (string * string) list;  (** first seen, reversed *)
}

let agg_create () =
  {
    executions = 0;
    racy_executions = 0;
    total_pairs = 0;
    mismatch_count = 0;
    mismatches = [];
    tbl = Hashtbl.create 16;
    order = [];
  }

let kept_mismatches = 5

let agg_add ?(oracle = true) agg accesses =
  agg.executions <- agg.executions + 1;
  let items = Array.of_list accesses in
  let pairs = detect accesses in
  if pairs <> [] then begin
    agg.racy_executions <- agg.racy_executions + 1;
    agg.total_pairs <- agg.total_pairs + List.length pairs
  end;
  List.iter
    (fun (a, b) ->
      let ka = site_key items.(a) and kb = site_key items.(b) in
      let key = if ka <= kb then (ka, kb) else (kb, ka) in
      let e =
        match Hashtbl.find_opt agg.tbl key with
        | Some e -> e
        | None ->
            let e =
              {
                pairs = 0;
                execs = 0;
                last_exec = -1;
                example =
                  Format.asprintf "%a  /  %a" Access.pp items.(a) Access.pp
                    items.(b);
              }
            in
            Hashtbl.replace agg.tbl key e;
            agg.order <- key :: agg.order;
            e
      in
      e.pairs <- e.pairs + 1;
      if e.last_exec <> agg.executions then begin
        e.last_exec <- agg.executions;
        e.execs <- e.execs + 1
      end)
    pairs;
  if oracle then
    match differential accesses with
    | [] -> ()
    | ms ->
        agg.mismatch_count <- agg.mismatch_count + List.length ms;
        List.iter
          (fun m ->
            if List.length agg.mismatches < kept_mismatches then
              agg.mismatches <- m :: agg.mismatches)
          ms

type site_pair = {
  site_a : string;
  site_b : string;
  pair_count : int;
  exec_count : int;
  example : string;
}

type summary = {
  executions : int;
  racy_executions : int;
  total_pairs : int;
  by_site : site_pair list;  (** most frequent first *)
  mismatch_count : int;  (** differential disagreements with {!Rc11.races} *)
  mismatches : string list;
}

let summary agg =
  let by_site =
    List.rev agg.order
    |> List.map (fun ((ka, kb) as key) ->
           let e = Hashtbl.find agg.tbl key in
           {
             site_a = ka;
             site_b = kb;
             pair_count = e.pairs;
             exec_count = e.execs;
             example = e.example;
           })
    |> List.stable_sort (fun a b -> compare b.pair_count a.pair_count)
  in
  {
    executions = agg.executions;
    racy_executions = agg.racy_executions;
    total_pairs = agg.total_pairs;
    by_site;
    mismatch_count = agg.mismatch_count;
    mismatches = List.rev agg.mismatches;
  }

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>executions analysed   %d@ racy executions       %d@ racing pairs          %d@ rc11 disagreements    %d@ "
    s.executions s.racy_executions s.total_pairs s.mismatch_count;
  if s.by_site = [] then Format.fprintf ppf "no races detected@ "
  else begin
    Format.fprintf ppf "@ %-32s %-32s %8s %8s@ " "site a" "site b" "pairs"
      "execs";
    List.iter
      (fun p ->
        Format.fprintf ppf "%-32s %-32s %8d %8d@   e.g. %s@ " p.site_a p.site_b
          p.pair_count p.exec_count p.example)
      s.by_site
  end;
  List.iter (fun m -> Format.fprintf ppf "MISMATCH: %s@ " m) s.mismatches;
  Format.fprintf ppf "@]"

let summary_to_json s =
  Jsonout.Obj
    [
      ("executions", Jsonout.Int s.executions);
      ("racy_executions", Jsonout.Int s.racy_executions);
      ("total_pairs", Jsonout.Int s.total_pairs);
      ("rc11_mismatches", Jsonout.Int s.mismatch_count);
      ( "by_site",
        Jsonout.List
          (List.map
             (fun p ->
               Jsonout.Obj
                 [
                   ("site_a", Jsonout.Str p.site_a);
                   ("site_b", Jsonout.Str p.site_b);
                   ("pairs", Jsonout.Int p.pair_count);
                   ("executions", Jsonout.Int p.exec_count);
                   ("example", Jsonout.Str p.example);
                 ])
             s.by_site) );
      ("mismatch_samples", Jsonout.str_list s.mismatches);
    ]
