open Compass_rmc
open Compass_machine

(* Symbolic evaluation of Prog terms.

   The free monad keeps thread programs as first-class values
   ({!Machine.spawned_progs}), but their continuations are opaque OCaml
   closures: there is no AST to walk, only a term to *feed*.  So the
   static analyzer evaluates each thread against an abstract store:
   every load forks the path over a small candidate set of values the
   location may hold, every store contributes its value to a shared
   monotone summary, and allocations mint fresh blocks whose identity is
   merged per allocation-site *class* (all "node" blocks alias one
   canonical block — the may-alias abstraction the lints need).

   Loops in the source (CAS retries under [with_fuel], scans) show up as
   repeated visits to the same access site; a per-site visit bound
   ([unroll]) truncates them, and a global per-thread op [budget] bounds
   the whole path tree.  Evaluation runs for a few [rounds] so values
   published by one thread (via the summary) become readable by the
   others — a chaotic iteration to a (bounded) fixpoint.

   Evaluation is *mode-independent*: access modes are recorded on events
   but never influence which values a load may see, so a single
   evaluation serves every hypothetical weakening the lint passes try
   ({!Lints}).  Base [overrides] (a [--weaken] under analysis) are baked
   into the recorded modes so reports show the program actually run.

   Exceptions raised inside continuations (a [failwith "corrupt slot"]
   on an infeasible candidate, [Out_of_fuel], [to_loc_exn] on a poison
   branch) terminate only that path: its event prefix is kept with
   [truncated] set, and the drop is counted. *)

type ekind =
  | ELoad
  | EStore
  | EUpdate of bool  (** RMW; the payload is the success flag *)
  | EAwait
  | EFence of Mode.fence
  | EAlloc

type ev = {
  idx : int;  (** position in the path (sequenced-before order) *)
  site : string option;
  ekind : ekind;
  mode : Mode.access;  (** recorded mode (base overrides applied) *)
  loc : Loc.t option;  (** raw location; [None] for fences *)
  cloc : Loc.t option;  (** class-canonical location (may-alias key) *)
  own : bool;  (** the block was allocated on this path *)
  wrote : Value.t option;  (** raw written value (stores, RMW successes) *)
  read : Value.t option;
  prov : int option;
      (** index of the event whose read produced the pointer this access
          dereferences — the def-use edge the pairing lint follows *)
}

type path = {
  tid : int;
  events : ev array;
  minted : int list;  (** bases of blocks allocated on this path *)
  truncated : bool;
}

type t = {
  threads : int;
  paths : path list;  (** final round only — the most-informed paths *)
  total_paths : int;
  dropped : int;  (** paths cut by exceptions inside continuations *)
}

(* The dynamic side keys unlabeled sites by location name and tid
   ({!Compass_analysis.Races.site_key}); minted bases register their
   allocation name so the strings line up. *)
let site_key p e =
  match e.site with
  | Some s -> s
  | None -> (
      match (e.ekind, e.loc) with
      | EFence _, _ -> Format.asprintf "unlabeled-fence[tid %d]" p.tid
      | _, Some l -> Format.asprintf "unlabeled@%a[tid %d]" Loc.pp l p.tid
      | _, None -> Format.asprintf "unlabeled[tid %d]" p.tid)

(* -- evaluator state --------------------------------------------------------- *)

(* The evaluation bounds: [rounds] chaotic iterations, [unroll] visits
   per site before a path truncates, [budget] ops per thread per round,
   at most [max_cands] forked values per load and [summary_cap] summary
   values per location. *)
let rounds = 3
let unroll = 4
let budget = 4000
let max_cands = 6
let summary_cap = 8

(* Minted bases live far above any base a real machine allocates, so
   [Loc.key]s never collide with the init store seeded from memory. *)
let mint_counter = Atomic.make 0x40000

let fresh_base ~name =
  let base = Atomic.fetch_and_add mint_counter 1 in
  Loc.register_name ~base ~name;
  base

type ctx = {
  classes : (string, int) Hashtbl.t;  (** alloc class -> canonical base *)
  class_of : (int, string) Hashtbl.t;  (** minted base -> class *)
  summary : (int, Value.t list) Hashtbl.t;
      (** canonical [Loc.key] -> values any path wrote there *)
  init : (int, Value.t) Hashtbl.t;  (** setup store, from {!Memory.iter_latest} *)
  overrides : Override.t;
  mutable eid : int;
  mutable dropped : int;
}

(* Per-path state, purely functional: forking a load is list concat. *)
type pst = {
  evs : ev list;  (** newest first *)
  n : int;
  minted : int list;
  store : (int * Value.t) list;  (** path-local latest write per raw key *)
  visits : (string * int) list;  (** per-site loop unrolling counters *)
  prov : (int * int) list;  (** base -> producing event index *)
  trunc : bool;
}

let canon_base ctx b =
  match Hashtbl.find_opt ctx.class_of b with
  | None -> b
  | Some cls -> Hashtbl.find ctx.classes cls

let canon_loc ctx (l : Loc.t) =
  let b = canon_base ctx l.Loc.base in
  if b = l.Loc.base then l else Loc.make ~base:b ~off:l.Loc.off

let canon_value ctx = function
  | Value.Ptr l -> Value.Ptr (canon_loc ctx l)
  | v -> v

let summary_add ctx l v =
  let cv = canon_value ctx v in
  if not (Value.equal cv Value.Poison) then begin
    let key = Loc.key (canon_loc ctx l) in
    let cur = Option.value ~default:[] (Hashtbl.find_opt ctx.summary key) in
    if
      List.length cur < summary_cap
      && not (List.exists (Value.equal cv) cur)
    then Hashtbl.replace ctx.summary key (cur @ [ cv ])
  end

(* Values a load of [l] may observe: the path's own latest write first,
   then the setup value, then everything the summary accumulated —
   deduplicated, poison-free, capped. *)
let candidates ctx st (l : Loc.t) =
  let key = Loc.key l in
  let ckey = Loc.key (canon_loc ctx l) in
  let local =
    match List.assoc_opt key st.store with Some v -> [ v ] | None -> []
  in
  let ini =
    match Hashtbl.find_opt ctx.init key with
    | Some v -> [ v ]
    | None -> []
  in
  let summ = Option.value ~default:[] (Hashtbl.find_opt ctx.summary ckey) in
  let rec dedup seen = function
    | [] -> []
    | v :: vs ->
        if Value.equal v Value.Poison || List.exists (Value.equal v) seen then
          dedup seen vs
        else v :: dedup (v :: seen) vs
  in
  let rec take n = function
    | x :: xs when n > 0 -> x :: take (n - 1) xs
    | _ -> []
  in
  take max_cands (dedup [] (local @ ini @ summ))

let push ctx st ~site ~ekind ~mode ~loc ~wrote ~read =
  let own =
    match loc with
    | Some l -> List.mem l.Loc.base st.minted
    | None -> false
  in
  let cloc = Option.map (canon_loc ctx) loc in
  let prov =
    match loc with
    | Some l when not own -> List.assoc_opt l.Loc.base st.prov
    | _ -> None
  in
  let e = { idx = st.n; site; ekind; mode; loc; cloc; own; wrote; read; prov } in
  let st = { st with evs = e :: st.evs; n = st.n + 1 } in
  match read with
  | Some (Value.Ptr l')
    when (not (List.mem l'.Loc.base st.minted))
         && not (List.mem_assoc l'.Loc.base st.prov) ->
      { st with prov = (l'.Loc.base, e.idx) :: st.prov }
  | _ -> st

let write ctx st (l : Loc.t) v =
  summary_add ctx l v;
  { st with store = (Loc.key l, v) :: st.store }

let visit_key site (l : Loc.t) =
  match site with Some s -> s | None -> "@" ^ string_of_int (Loc.key l)

let visit st key =
  let c = Option.value ~default:0 (List.assoc_opt key st.visits) in
  if c >= unroll then None
  else Some { st with visits = (key, c + 1) :: st.visits }

let alloc_block ctx st name size init =
  let cls = Printf.sprintf "%s/%d" name size in
  if not (Hashtbl.mem ctx.classes cls) then begin
    let cb = fresh_base ~name in
    Hashtbl.replace ctx.classes cls cb;
    Hashtbl.replace ctx.class_of cb cls
  end;
  let base = fresh_base ~name in
  Hashtbl.replace ctx.class_of base cls;
  let st = { st with minted = base :: st.minted } in
  let st =
    if Value.equal init Value.Poison then st
    else
      let rec cells st off =
        if off >= size then st
        else cells (write ctx st (Loc.make ~base ~off) init) (off + 1)
      in
      cells st 0
  in
  (st, base)

let mkres ?(success = true) v =
  { Prog.value = v; view = View.bot; lview = Lview.empty; success }

(* -- the evaluator ----------------------------------------------------------- *)

let rec eval ctx budget tid st (p : 'a Prog.t) : pst list =
  match p with
  | Prog.Ret _ -> [ st ]
  | Prog.Reserve k ->
      ctx.eid <- ctx.eid + 1;
      let e = ctx.eid in
      continue ctx budget tid st (fun () -> k e)
  | Prog.Op ({ site; instr }, k) ->
      if !budget <= 0 then [ { st with trunc = true } ]
      else begin
        decr budget;
        match instr with
        | Prog.Yield -> continue ctx budget tid st (fun () -> k (mkres Value.Unit))
        | Prog.Tid ->
            continue ctx budget tid st (fun () -> k (mkres (Value.Int tid)))
        | Prog.Fence f0 -> (
            match Override.fence ctx.overrides ~site f0 with
            | None -> continue ctx budget tid st (fun () -> k (mkres Value.Unit))
            | Some f ->
                let st =
                  push ctx st ~site ~ekind:(EFence f) ~mode:Mode.Rlx ~loc:None
                    ~wrote:None ~read:None
                in
                continue ctx budget tid st (fun () -> k (mkres Value.Unit)))
        | Prog.Alloc { name; size; init } ->
            let st, base = alloc_block ctx st name size init in
            (* The machine records one unlabeled initialising store per
               cell ({!Machine}); the race-candidate cross-check needs
               the same events here. *)
            let st = ref st in
            for off = 0 to size - 1 do
              st :=
                push ctx !st ~site ~ekind:EAlloc ~mode:Mode.Na
                  ~loc:(Some (Loc.make ~base ~off))
                  ~wrote:(Some init) ~read:None
            done;
            let st = !st in
            continue ctx budget tid st (fun () ->
                k (mkres (Value.Ptr (Loc.make ~base ~off:0))))
        | Prog.Store (l, v, m0, _) ->
            let m = Override.access ctx.overrides ~site m0 in
            let st =
              push ctx st ~site ~ekind:EStore ~mode:m ~loc:(Some l)
                ~wrote:(Some v) ~read:None
            in
            let st = write ctx st l v in
            continue ctx budget tid st (fun () -> k (mkres Value.Unit))
        | Prog.Load (l, m0, _) -> (
            let m = Override.access ctx.overrides ~site m0 in
            match visit st (visit_key site l) with
            | None -> [ { st with trunc = true } ]
            | Some st -> (
                match candidates ctx st l with
                | [] -> [ { st with trunc = true } ]
                | cs ->
                    List.concat_map
                      (fun v ->
                        let st =
                          push ctx st ~site ~ekind:ELoad ~mode:m ~loc:(Some l)
                            ~wrote:None ~read:(Some v)
                        in
                        continue ctx budget tid st (fun () -> k (mkres v)))
                      cs))
        | Prog.Await (l, m0, pred, _) -> (
            let m = Override.access ctx.overrides ~site m0 in
            match visit st (visit_key site l) with
            | None -> [ { st with trunc = true } ]
            | Some st -> (
                let cs =
                  List.filter
                    (fun v -> try pred v with _ -> false)
                    (candidates ctx st l)
                in
                let cs = match cs with a :: b :: _ -> [ a; b ] | _ -> cs in
                match cs with
                | [] -> [ { st with trunc = true } ]
                | cs ->
                    List.concat_map
                      (fun v ->
                        let st =
                          push ctx st ~site ~ekind:EAwait ~mode:m ~loc:(Some l)
                            ~wrote:None ~read:(Some v)
                        in
                        continue ctx budget tid st (fun () -> k (mkres v)))
                      cs))
        | Prog.Rmw (l, kind, m0, _) -> (
            let m = Override.access ctx.overrides ~site m0 in
            match visit st (visit_key site l) with
            | None -> [ { st with trunc = true } ]
            | Some st -> (
                let branches =
                  match kind with
                  | Prog.Cas (expected, desired) ->
                      (* The success branch is always feasible (another
                         thread may have installed [expected]); failures
                         fork over observed non-matching values. *)
                      let fails =
                        candidates ctx st l
                        |> List.filter (fun v -> not (Value.equal v expected))
                      in
                      let fails =
                        match fails with a :: b :: _ -> [ a; b ] | _ -> fails
                      in
                      (expected, Some desired, true)
                      :: List.map (fun v -> (v, None, false)) fails
                  | Prog.Faa d ->
                      candidates ctx st l
                      |> List.filter_map (function
                           | Value.Int n ->
                               Some
                                 (Value.Int n, Some (Value.Int (n + d)), true)
                           | _ -> None)
                  | Prog.Xchg v ->
                      candidates ctx st l
                      |> List.map (fun old -> (old, Some v, true))
                in
                let branches =
                  match branches with
                  | a :: b :: c :: _ -> [ a; b; c ]
                  | bs -> bs
                in
                match branches with
                | [] -> [ { st with trunc = true } ]
                | bs ->
                    List.concat_map
                      (fun (rv, wv, success) ->
                        let st =
                          push ctx st ~site ~ekind:(EUpdate success) ~mode:m
                            ~loc:(Some l) ~wrote:wv ~read:(Some rv)
                        in
                        let st =
                          match wv with Some w -> write ctx st l w | None -> st
                        in
                        continue ctx budget tid st (fun () ->
                            k (mkres ~success rv)))
                      bs))
      end

(* Force a continuation, converting any exception it (or the branch it
   opens) raises into a truncated path.  [match ... with exception]
   only catches the thunk itself; deeper branches are protected by the
   [continue] frames inside their own [eval] calls. *)
and continue ctx budget tid st thunk =
  match thunk () with
  | next -> eval ctx budget tid st next
  | exception Prog.Out_of_fuel _ -> [ { st with trunc = true } ]
  | exception _ ->
      ctx.dropped <- ctx.dropped + 1;
      [ { st with trunc = true } ]

let finish tid (st : pst) =
  {
    tid;
    events = Array.of_list (List.rev st.evs);
    minted = st.minted;
    truncated = st.trunc;
  }

(* Forking over candidate values produces many paths that are identical
   up to which concrete block a pointer names — indistinguishable to the
   lints, which only see sites, modes, canonical locations, ownership
   and def-use edges.  Deduplicating by that signature is what keeps the
   (quadratic) lint passes tractable. *)
let signature ctx (p : path) =
  (* scalar values never influence a lint verdict; pointer identity
     (canonical) does, via publication and def-use *)
  let v =
    Option.map (fun x ->
        match canon_value ctx x with
        | Value.Ptr l -> Loc.key l
        | _ -> -1)
  in
  ( p.tid,
    p.truncated,
    Array.map
      (fun e ->
        ( e.site,
          e.ekind,
          e.mode,
          Option.map Loc.key e.cloc,
          e.own,
          e.prov,
          v e.wrote,
          v e.read ))
      p.events )

let dedup ctx paths =
  let seen = Hashtbl.create 256 in
  List.filter
    (fun p ->
      let s = signature ctx p in
      if Hashtbl.mem seen s then false
      else (
        Hashtbl.replace seen s ();
        true))
    paths

let run ?(overrides = Override.empty) (m : Machine.t) : t =
  let ctx =
    {
      classes = Hashtbl.create 8;
      class_of = Hashtbl.create 32;
      summary = Hashtbl.create 64;
      init = Hashtbl.create 64;
      overrides;
      eid = 0;
      dropped = 0;
    }
  in
  Memory.iter_latest (Machine.memory m) (fun l v ->
      match v with
      | Value.Poison -> ()
      | v -> Hashtbl.replace ctx.init (Loc.key l) v);
  let progs = Machine.spawned_progs m in
  let empty =
    { evs = []; n = 0; minted = []; store = []; visits = []; prov = []; trunc = false }
  in
  let total = ref 0 in
  let final = ref [] in
  for _round = 1 to rounds do
    final :=
      List.concat
        (List.mapi
           (fun tid p ->
             let b = ref budget in
             let ps = eval ctx b tid empty p in
             total := !total + List.length ps;
             dedup ctx (List.map (finish tid) ps))
           progs)
  done;
  {
    threads = List.length progs;
    paths = !final;
    total_paths = !total;
    dropped = ctx.dropped;
  }
