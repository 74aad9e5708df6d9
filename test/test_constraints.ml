(* Heterogeneous capability classes and placement constraints.

   The contract under test: a single Constraints.spec (pins, forbids,
   required classes, skip-placement classes) threads through every
   mapping layer — each registry strategy either produces a
   DRC-clean mapping or declines with a named reason, the empty spec
   is bit-identical to the historical unconstrained pipeline, and the
   fault-repair path never moves a pinned task or evacuates onto a
   forbidden/incompatible survivor. *)

open Oregami
module Constraints = Mapper.Constraints

let topo s = Result.get_ok (Topology.of_string s)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let tg_of name =
  let spec = List.find (fun s -> s.Workloads.w_name = name) (Workloads.all ()) in
  (Workloads.compile_exn spec).Larcs.Compile.graph

let map_with ?(spec = Constraints.none) ?(fallback = false) ?faults tg t =
  let options =
    { Driver.default_options with Driver.constraints = spec; Driver.fallback }
  in
  Driver.map_taskgraph ~options ?faults tg t

(* --- topology capability classes ---------------------------------- *)

let test_class_spec () =
  let t = topo "torus:4x4:classes=mem@0-3/io@12,15" in
  Alcotest.(check string) "tagged" "mem" (Topology.node_class t 0);
  Alcotest.(check string) "second group" "io" (Topology.node_class t 15);
  Alcotest.(check string) "default" Topology.default_class (Topology.node_class t 5);
  Alcotest.(check (list string)) "classes" [ "compute"; "io"; "mem" ]
    (Topology.class_names t);
  (* degradation keeps the tags *)
  let faults = Result.get_ok (Faults.make ~procs:[ 1 ] ~links:[] t) in
  let view = Result.get_ok (Faults.degrade t faults) in
  Alcotest.(check string) "degrade keeps classes" "mem"
    (Topology.node_class view.Faults.topo 0);
  (* malformed suffixes name the offending field *)
  let bad s sub =
    match Topology.of_string s with
    | Ok _ -> Alcotest.failf "accepted %S" s
    | Error e ->
      if not (contains ~sub e) then Alcotest.failf "error %S misses %S" e sub
  in
  bad "torus:4x4:classes=mem@99" "out of range";
  bad "torus:4x4:classes=mem" "bad class group";
  bad "torus:4x4:classes=m!m@1" "bad class name";
  bad "torus:4x4:classes=mem@5-2" "empty processor range"

(* --- compile-time spec validation --------------------------------- *)

let test_compile_errors () =
  let tg = tg_of "jacobi" in
  let t = topo "torus:4x4:classes=mem@0-3" in
  let check spec sub =
    let c = Constraints.compile spec tg t in
    match Constraints.errors c with
    | [] -> Alcotest.failf "spec accepted, wanted error containing %S" sub
    | e :: _ ->
      if not (contains ~sub e) then Alcotest.failf "error %S misses %S" e sub
  in
  check { Constraints.none with Constraints.pins = [ (999, 0) ] } "out of range";
  check { Constraints.none with Constraints.pins = [ (0, 99) ] } "out of range";
  check
    { Constraints.none with Constraints.pins = [ (0, 1); (0, 2) ] }
    "pinned to both";
  check
    { Constraints.none with Constraints.skip_classes = [ "gpu" ] }
    "not present on";
  check
    { Constraints.none with Constraints.requires = [ (0, "gpu") ] }
    "no alive placeable processor";
  check
    {
      Constraints.none with
      Constraints.pins = [ (0, 5) ];
      Constraints.requires = [ (0, "mem") ];
    }
    "class"

(* --- every strategy: satisfy or decline --------------------------- *)

let strategies_satisfy_or_decline tg t spec =
  let cons = Constraints.compile spec tg t in
  Alcotest.(check (list string)) "spec compiles" [] (Constraints.errors cons);
  List.iter
    (fun (s : Strategy.t) ->
      let options =
        {
          Driver.default_options with
          Driver.constraints = spec;
          Driver.only = [ s.Strategy.name ];
        }
      in
      match Driver.map_taskgraph ~options tg t with
      | Error _ -> ()
      (* declining by name is the allowed alternative; the aggregate
         error always carries the reasons *)
      | Ok m -> begin
        match Constraints.drc cons (Mapping.assignment m) with
        | [] -> ()
        | v :: _ ->
          Alcotest.failf "strategy %s violated constraints: %s" s.Strategy.name
            (Constraints.violation_to_string v)
      end)
    (Strategy.registry ())

let test_all_strategies_respect () =
  let t = topo "torus:4x4:classes=mem@0-3" in
  let spec =
    {
      Constraints.pins = [ (0, 1) ];
      forbids = [ (2, 5); (3, 5) ];
      requires = [ (1, "mem") ];
      skip_classes = [];
    }
  in
  strategies_satisfy_or_decline (tg_of "jacobi") t spec;
  strategies_satisfy_or_decline (tg_of "fft") t spec

let test_skip_class () =
  let t = topo "torus:4x4:classes=io@12-15" in
  let tg = tg_of "fft" in
  let spec = { Constraints.none with Constraints.skip_classes = [ "io" ] } in
  match map_with ~spec tg t with
  | Error e -> Alcotest.failf "no mapping: %s" e
  | Ok m ->
    Array.iter
      (fun p ->
        if p >= 12 then Alcotest.failf "task placed on skip-class processor %d" p)
      (Mapping.assignment m)

(* --- the empty spec is bit-identical ------------------------------ *)

let test_unconstrained_identity () =
  List.iter
    (fun name ->
      let tg = tg_of name in
      let t = topo "torus:4x4" in
      let base = Result.get_ok (Driver.map_taskgraph tg t) in
      let cons = Result.get_ok (map_with ~spec:Constraints.none tg t) in
      Alcotest.(check string) "same strategy" base.Mapping.strategy
        cons.Mapping.strategy;
      Alcotest.(check (array int)) "same assignment" (Mapping.assignment base)
        (Mapping.assignment cons))
    [ "jacobi"; "fft"; "divconq" ]

(* --- repair under constraints ------------------------------------- *)

let test_repair_refuses_dead_pin () =
  let tg = tg_of "jacobi" in
  let t = topo "torus:4x4" in
  let spec = { Constraints.none with Constraints.pins = [ (0, 3) ] } in
  let m = Result.get_ok (map_with ~spec tg t) in
  let faults = Result.get_ok (Faults.make ~procs:[ 3 ] ~links:[] t) in
  let view = Result.get_ok (Faults.degrade t faults) in
  let options = { Ctx.default_options with Ctx.constraints = spec } in
  match Repair.repair ~options m view.Faults.topo with
  | Ok _ -> Alcotest.fail "repair moved a pinned task off its dead processor"
  | Error e ->
    if not (contains ~sub:"pin" e) then
      Alcotest.failf "refusal does not name the pin: %s" e

(* property: repair never moves a surviving pinned task and never
   evacuates onto a forbidden or wrong-class survivor *)
let prop_repair_respects_constraints =
  QCheck.Test.make ~name:"repair respects pins/forbids/classes" ~count:60
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rng = Prelude.Rng.create seed in
      let tg = tg_of (if seed mod 2 = 0 then "jacobi" else "fft") in
      let n = tg.Taskgraph.n in
      let t = topo "torus:4x4:classes=mem@0-3" in
      let nprocs = Topology.node_count t in
      (* one pinned task (never on the processor we kill), a couple of
         forbids, one class requirement *)
      let dead = 4 + Prelude.Rng.int rng (nprocs - 4) in
      let pin_proc =
        let p = ref (Prelude.Rng.int rng nprocs) in
        while !p = dead do p := Prelude.Rng.int rng nprocs done;
        !p
      in
      let pin_task = Prelude.Rng.int rng n in
      let forbid_task = Prelude.Rng.int rng n in
      let req_task =
        let tk = ref (Prelude.Rng.int rng n) in
        while !tk = pin_task || !tk = forbid_task do
          tk := Prelude.Rng.int rng n
        done;
        !tk
      in
      let spec =
        {
          Constraints.pins = [ (pin_task, pin_proc) ];
          forbids =
            (if forbid_task = pin_task then []
             else [ (forbid_task, (dead + 1) mod nprocs) ]);
          requires = [ (req_task, "mem") ];
          skip_classes = [];
        }
      in
      match map_with ~spec ~fallback:true tg t with
      | Error e -> QCheck.Test.fail_reportf "base mapping failed: %s" e
      | Ok m -> begin
        let faults = Result.get_ok (Faults.make ~procs:[ dead ] ~links:[] t) in
        let view = Result.get_ok (Faults.degrade t faults) in
        let options = { Ctx.default_options with Ctx.constraints = spec } in
        match Repair.repair ~options m view.Faults.topo with
        | Error e -> QCheck.Test.fail_reportf "repair failed: %s" e
        | Ok r ->
          let a = Mapping.assignment r.Repair.rp_mapping in
          if a.(pin_task) <> pin_proc then
            QCheck.Test.fail_reportf "pinned task %d moved to %d" pin_task
              a.(pin_task);
          List.iter
            (fun (tk, p) ->
              if a.(tk) = p then
                QCheck.Test.fail_reportf "task %d evacuated onto forbidden %d" tk p)
            spec.Constraints.forbids;
          if Topology.node_class t a.(req_task) <> "mem" then
            QCheck.Test.fail_reportf
              "task %d requiring mem landed on %d (class %s)" req_task
              a.(req_task)
              (Topology.node_class t a.(req_task));
          (* and no task may sit on the dead processor *)
          Array.iteri
            (fun tk p ->
              if p = dead then
                QCheck.Test.fail_reportf "task %d left on dead processor" tk)
            a;
          true
      end)

let () =
  Alcotest.run "constraints"
    [
      ( "topology",
        [ Alcotest.test_case "class specs parse and degrade" `Quick test_class_spec ] );
      ( "compile",
        [ Alcotest.test_case "malformed specs name the rule" `Quick
            test_compile_errors ] );
      ( "strategies",
        [
          Alcotest.test_case "satisfy or decline, every registry entry" `Quick
            test_all_strategies_respect;
          Alcotest.test_case "skip-placement classes" `Quick test_skip_class;
          Alcotest.test_case "empty spec is bit-identical" `Quick
            test_unconstrained_identity;
        ] );
      ( "repair",
        [
          Alcotest.test_case "refuses a dead pin" `Quick test_repair_refuses_dead_pin;
          QCheck_alcotest.to_alcotest prop_repair_respects_constraints;
        ] );
    ]
