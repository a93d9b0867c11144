open Compass_rmc

(* Mode overrides: a mapping from site labels to weakened access modes or
   fence replacements, applied by the machine just before it executes an
   instruction.  This is how the synchronization audit runs *mutants*: a
   mutant is not a separate copy of the data structure's code, it is the
   original program executed under an override — so a mutant counterexample
   can be replayed bit-for-bit with [compass replay --weaken site=mode].

   The registry's broken [ms-weak] fixture is the same program with the
   modes fixed at build time: [Msqueue.relaxed_publication] runs the
   queue's one body with the enqueue's three CASes on [next] and [tail]
   relaxed, and explores exactly like [ms] under the three overrides
   [msqueue.enq.{link_cas,tail_swing,tail_help}=rlx] (a test pins it).

   Overrides only apply to labeled operations (an unlabeled op has no
   address), and only strengthen-to-weaken is meaningful: the audit never
   asks for Na, but the machine does not police directions — replay must
   be able to reproduce whatever the audit ran. *)

type fence_action = Weaken_fence of Mode.fence | Drop_fence

type t = {
  accesses : (string * Mode.access) list;  (** site -> replacement mode *)
  fences : (string * fence_action) list;  (** site -> replacement / drop *)
}

let empty = { accesses = []; fences = [] }
let is_empty t = t.accesses = [] && t.fences = []
let weaken_access site mode t = { t with accesses = (site, mode) :: t.accesses }

let weaken_fence site fence t =
  { t with fences = (site, Weaken_fence fence) :: t.fences }

let drop_fence site t = { t with fences = (site, Drop_fence) :: t.fences }

let access t ~site mode =
  match site with
  | None -> mode
  | Some s -> ( match List.assoc_opt s t.accesses with Some m -> m | None -> mode)

(* [None] means the fence is dropped (the op becomes a yield). *)
let fence t ~site f =
  match site with
  | None -> Some f
  | Some s -> (
      match List.assoc_opt s t.fences with
      | Some (Weaken_fence f') -> Some f'
      | Some Drop_fence -> None
      | None -> Some f)

(* -- parsing (CLI surface: "site=rlx", "site=drop", ...) ------------------ *)

let access_of_string = function
  | "na" -> Some Mode.Na
  | "rlx" -> Some Mode.Rlx
  | "acq" -> Some Mode.Acq
  | "rel" -> Some Mode.Rel
  | "acq_rel" | "acqrel" -> Some Mode.AcqRel
  | _ -> None

let fence_of_string = function
  | "fence_acq" | "facq" -> Some Mode.F_acq
  | "fence_rel" | "frel" -> Some Mode.F_rel
  | "fence_acq_rel" | "facqrel" -> Some Mode.F_acqrel
  | "fence_sc" | "fsc" -> Some Mode.F_sc
  | _ -> None

(* One spec: "site=MODE" where MODE is an access mode, a fence mode, or
   "drop".  Fence sites and access sites live in one namespace, so the
   spec's right-hand side decides which table the entry lands in. *)
let add_spec t spec =
  match String.index_opt spec '=' with
  | None -> Error (Printf.sprintf "override %S: expected site=mode" spec)
  | Some i -> (
      let site = String.sub spec 0 i in
      let rhs = String.sub spec (i + 1) (String.length spec - i - 1) in
      if site = "" then Error (Printf.sprintf "override %S: empty site" spec)
      else
        match (access_of_string rhs, fence_of_string rhs, rhs) with
        | Some m, _, _ -> Ok (weaken_access site m t)
        | None, Some f, _ -> Ok (weaken_fence site f t)
        | None, None, "drop" -> Ok (drop_fence site t)
        | None, None, _ ->
            Error (Printf.sprintf "override %S: unknown mode %S" spec rhs))

let of_specs specs =
  List.fold_left
    (fun acc spec -> Result.bind acc (fun t -> add_spec t spec))
    (Ok empty) specs

let spec_strings t =
  List.rev_map
    (fun (s, m) -> Printf.sprintf "%s=%s" s (Mode.access_to_string m))
    t.accesses
  @ List.rev_map
      (fun (s, a) ->
        match a with
        | Weaken_fence f -> Format.asprintf "%s=%a" s Mode.pp_fence f
        | Drop_fence -> Printf.sprintf "%s=drop" s)
      t.fences

let pp ppf t =
  Format.fprintf ppf "@[<h>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
       Format.pp_print_string)
    (spec_strings t)
