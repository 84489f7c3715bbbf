(* Request inputs: hyperreconf.case/1 documents built from the
   library's workload generators, and the bench-side reference problem
   the correctness gate re-prices plans against. *)

open Hr_core
module Case = Hr_check.Case

let of_task_set ts =
  let m = Task_set.num_tasks ts in
  let trace j = (Task_set.get ts j).Task_set.trace in
  {
    Case.spec =
      Case.Switch
        {
          widths = Array.init m (fun j -> Switch_space.size (Trace.space (trace j)));
          vs = Array.init m (fun j -> (Task_set.get ts j).Task_set.v);
          reqs =
            Array.init m (fun j ->
                Array.to_list (Array.map Hr_util.Bitset.to_list (Trace.reqs (trace j))));
        };
    params = Sync_cost.default_params;
    mode = Mixed_sync.Fully_synchronized;
    machine_class = Problem.Partial;
    place = None;
  }

(* One [Multi_gen.independent] MT-Switch instance: [m] tasks of [local]
   switches each over [n] steps. *)
let multi ~seed ~m ~n ~local ?density () =
  let spec =
    {
      Hr_workload.Multi_gen.default_spec with
      Hr_workload.Multi_gen.m;
      n;
      local_sizes = Array.make m local;
    }
  in
  let spec =
    match density with
    | None -> spec
    | Some density -> { spec with Hr_workload.Multi_gen.density }
  in
  of_task_set (Hr_workload.Multi_gen.independent (Hr_util.Rng.create seed) spec)

(* The same instance with every task's trace rotated left by [k] steps:
   a never-seen case of identical size and statistics. *)
let rotate (c : Case.t) k =
  match c.Case.spec with
  | Case.Switch { widths; vs; reqs } ->
      let rot l =
        let a = Array.of_list l in
        let n = Array.length a in
        List.init n (fun i -> a.((i + k) mod n))
      in
      { c with Case.spec = Case.Switch { widths; vs; reqs = Array.map rot reqs } }
  | _ -> invalid_arg "Cases.rotate: switch-model cases only"

(* The reference problem: |U_j(lo,hi)| counted straight from the case's
   requirement lists on every query — no Range_union, Flat_table or
   Occ_index involved — so a plan re-priced against it checks the
   served oracle instead of trusting it.  Not thread-safe. *)
let reference_problem (c : Case.t) =
  match c.Case.spec with
  | Case.Switch { widths; vs; reqs } ->
      let reqs = Array.map (fun l -> Array.of_list (List.map Array.of_list l)) reqs in
      let m = Array.length reqs and n = Array.length reqs.(0) in
      let seen = Array.map (fun w -> Array.make w (-1)) widths in
      let query = ref 0 in
      let step_cost j lo hi =
        incr query;
        let q = !query and seen = seen.(j) and count = ref 0 in
        for i = lo to hi do
          Array.iter
            (fun s ->
              if seen.(s) <> q then begin
                seen.(s) <- q;
                incr count
              end)
            reqs.(j).(i)
        done;
        !count
      in
      Problem.make ~params:c.Case.params ~mode:c.Case.mode
        ~machine_class:c.Case.machine_class ~precompute:false
        (Interval_cost.make ~m ~n ~v:vs ~step_cost)
  | _ -> invalid_arg "Cases.reference_problem: switch-model cases only"
