(* Characterization of every greedy placer: NN-Embed and its refinement
   inside the pipeline (constrained and not, every selection path
   including the greedy-feasible fallback), anytime truncation under
   fuel budgets, fault repair and the repair-vs-remap pricing, the
   online incremental placer, the cluster lifecycle with chaos, the
   large tier with a mid-run fault, and the per-channel span timeline.

   Each group renders its cases as text lines (assignment, strategy
   label, completion model, simulated makespan, ...) and the test pins
   the MD5 of the group's lines.  A refactor of the placers must keep
   every digest.  [test_placers.exe --dump] prints every group's lines
   and digest, so a mismatch can be diffed against an older commit. *)

open Oregami
module Constraints = Mapper.Constraints

let topo s = Result.get_ok (Topology.of_string s)

let ints a = String.concat "," (Array.to_list (Array.map string_of_int a))

let compiled =
  lazy (List.map (fun w -> (w.Workloads.w_name, Workloads.compile_exn w)) (Workloads.all ()))

let degradation = function
  | Stats.Full -> "full"
  | Stats.Truncated sites -> "truncated:" ^ String.concat "+" sites
  | Stats.Fallback -> "fallback"

let describe_mapping m =
  Printf.sprintf "%s completion=%d makespan=%d assign=%s" m.Mapping.strategy
    (Metrics.completion_time m) (Netsim.run m).Netsim.makespan
    (ints (Mapping.assignment m))

let run_line options c t =
  match Driver.run (Ctx.of_compiled ~options c t) with
  | Error e -> "error " ^ e
  | Ok (m, d) -> Printf.sprintf "%s %s" (degradation d) (describe_mapping m)

(* --- mapping cases ------------------------------------------------- *)

(* (group label, spec): the label keeps test names short *)
let topologies =
  [ ("hypercube:3", "hypercube:3"); ("mesh:4x4", "mesh:4x4"); ("torus:4x4", "torus:4x4");
    ("ring:8", "ring:8"); ("classed", "torus:4x4:classes=mem@0-3/io@12-15") ]

let forbids = [ (0, 0); (1, 5); (2, 3); (3, 7) ]

let specs =
  let none = Constraints.none in
  [
    ("none", none);
    ("pin", { none with Constraints.pins = [ (0, 5) ] });
    ("pin+require", { none with Constraints.pins = [ (0, 5) ]; requires = [ (1, "mem") ] });
    ("forbid", { none with Constraints.forbids });
    ("skip", { none with Constraints.skip_classes = [ "io" ] });
  ]

let selections =
  [ ("default", [], false); ("mwm", [ "mwm" ], false); ("blocks", [ "blocks" ], false);
    ("random+fallback", [ "random" ], true) ]

let mapping_group (label, tname) (sname, spec) =
  let t = topo tname in
  List.concat_map
    (fun (wname, c) ->
      List.map
        (fun (sel, only, fallback) ->
          let options =
            { Driver.default_options with Driver.constraints = spec; only; fallback }
          in
          Printf.sprintf "%s %s: %s" wname sel (run_line options c t))
        selections)
    (Lazy.force compiled)
  |> fun lines -> (Printf.sprintf "map %s %s" label sname, lines)

(* --- fuel budgets -------------------------------------------------- *)

let fuel_group (label, spec) =
  let t = topo "torus:4x4" in
  let lines =
    List.concat_map
      (fun (wname, c) ->
        List.map
          (fun fuel ->
            let options =
              { Driver.default_options with Driver.constraints = spec; fuel = Some fuel }
            in
            Printf.sprintf "%s fuel=%d: %s" wname fuel (run_line options c t))
          [ 50; 100; 200; 500; 1000; 3000 ])
      (Lazy.force compiled)
  in
  ("fuel " ^ label, lines)

(* --- fault repair and repair-vs-remap pricing ---------------------- *)

let recover_group (label, spec) =
  let machines =
    [ ("torus:4x4", [ 5 ], []); ("hypercube:3", [ 3 ], [ 0 ]); ("mesh:4x4", [ 1; 6 ], []) ]
  in
  let lines =
    List.concat_map
      (fun (tname, procs, links) ->
        let t = topo tname in
        let faults = Result.get_ok (Faults.make ~procs ~links t) in
        List.map
          (fun wname ->
            let c = List.assoc wname (Lazy.force compiled) in
            let options = { Driver.default_options with Driver.constraints = spec } in
            let res =
              match Remap.recover ~options ~compiled:c c.Larcs.Compile.graph t faults with
              | Error e -> "error " ^ e
              | Ok r ->
                let bill b =
                  Printf.sprintf "migration=%d makespan=%d moved=%d" b.Remap.b_migration
                    b.Remap.b_makespan b.Remap.b_moved
                in
                Printf.sprintf "base=%s repair=%s [%s] remap=%s [%s] repair_wins=%b"
                  (ints (Mapping.assignment r.Remap.rc_base))
                  (ints (Mapping.assignment r.Remap.rc_repair.Repair.rp_mapping))
                  (bill r.Remap.rc_repair_bill)
                  (describe_mapping r.Remap.rc_remap)
                  (bill r.Remap.rc_remap_bill) r.Remap.rc_repair_wins
            in
            Printf.sprintf "%s %s: %s" tname wname res)
          [ "nbody"; "jacobi"; "fft"; "spawned" ])
      machines
  in
  ("recover " ^ label, lines)

(* --- the online incremental placer --------------------------------- *)

let incremental_group () =
  let filters =
    [ ("all", None); ("filtered", Some (fun t p -> (t + p) mod 3 <> 0));
      ("none-fit", Some (fun _ p -> p = 0)) ]
  in
  let lines =
    List.concat_map
      (fun tname ->
        let t = topo tname in
        let procs = Topology.node_count t in
        List.concat_map
          (fun (wname, c) ->
            let tg = c.Larcs.Compile.graph in
            let static = Taskgraph.static_graph tg in
            let activation = c.Larcs.Compile.activation in
            let base_cap = (tg.Taskgraph.n + procs - 1) / procs in
            List.concat_map
              (fun cap ->
                List.concat_map
                  (fun (fname, feasible) ->
                    List.map
                      (fun fuel ->
                        let budget = Option.map (fun f -> Budget.create ~fuel:f ()) fuel in
                        let res =
                          match
                            Mapper.Incremental.try_place ?budget ?feasible static ~activation
                              ~cap t
                          with
                          | Ok a -> "ok " ^ ints a
                          | Error e -> "error " ^ e
                        in
                        Printf.sprintf "%s %s cap=%d %s fuel=%s: %s" tname wname cap fname
                          (match fuel with Some f -> string_of_int f | None -> "-")
                          res)
                      [ None; Some 50 ])
                  filters)
              [ base_cap; base_cap + 1; max 1 (base_cap - 1) ])
          (Lazy.force compiled))
      [ "mesh:2x4"; "torus:4x4" ]
  in
  (* [place] is [try_place] raising on the same errors *)
  let place =
    let t = topo "torus:4x4" in
    let c = List.assoc "spawned" (Lazy.force compiled) in
    let static = Taskgraph.static_graph c.Larcs.Compile.graph in
    let activation = c.Larcs.Compile.activation in
    [ "place: " ^ ints (Mapper.Incremental.place static ~activation ~cap:2 t) ]
  in
  ("incremental", lines @ place)

(* --- the cluster lifecycle with chaos ------------------------------ *)

let cluster_group () =
  let cases =
    [ ("torus:4x4", 60, 1, "10:kill-procs=3;25:revive-procs=3");
      ("mesh:4x4", 60, 7, "5:kill-procs=0,5;30:kill-links=2;40:revive-procs=0,5");
      ("hypercube:4", 80, 3, "15:kill-procs=1,2;50:revive-procs=1,2");
      ("torus:8x8", 80, 11, "20:kill-procs=9,10,17;60:revive-procs=9,10,17") ]
  in
  let lines =
    List.concat_map
      (fun (tname, events, seed, chaos) ->
        let t = topo tname in
        let chaos = Result.get_ok (Cluster.parse_chaos chaos) in
        match Cluster.run ~chaos t (Cluster.synth_trace ~events ~seed t) with
        | Error e -> [ Printf.sprintf "%s: error %s" tname e ]
        | Ok r ->
          Printf.sprintf
            "%s seed=%d: admitted=%d completed=%d cancelled=%d refused=%d shed=%d \
             repairs=%d remaps=%d evictions=%d repacks=%d declined=%d migration=%d \
             chaos=%d/%d"
            tname seed r.Cluster.rp_admitted r.Cluster.rp_completed r.Cluster.rp_cancelled
            (List.length r.Cluster.rp_refused) (List.length r.Cluster.rp_shed)
            r.Cluster.rp_repairs r.Cluster.rp_remaps r.Cluster.rp_evictions
            r.Cluster.rp_repacks r.Cluster.rp_repacks_declined r.Cluster.rp_migration_total
            r.Cluster.rp_chaos_applied r.Cluster.rp_chaos_refused
          :: List.map
               (fun s ->
                 Printf.sprintf "sample %d util=%h frag=%h running=%d queued=%d free=%d"
                   s.Cluster.s_clock s.Cluster.s_utilization s.Cluster.s_fragmentation
                   s.Cluster.s_running s.Cluster.s_queued s.Cluster.s_free)
               r.Cluster.rp_samples
          @ r.Cluster.rp_log)
      cases
  in
  ("cluster", lines)

(* --- the large tier, with a mid-run fault -------------------------- *)

let large_group () =
  let t = topo "torus:8x8" in
  let lines =
    List.concat_map
      (fun spec ->
        let tg = Result.get_ok (Synth.build spec) in
        match Driver.report_taskgraph tg t with
        | Error e, _ -> [ spec ^ ": error " ^ e ]
        | Ok m, _ ->
          let busiest =
            let load = Array.make (Topology.node_count t) 0 in
            Array.iter (fun p -> load.(p) <- load.(p) + 1) (Mapping.assignment m);
            let best = ref 0 in
            Array.iteri (fun p l -> if l > load.(!best) then best := p) load;
            !best
          in
          let fault = { Netsim.at_slot = 1; kill_procs = [ busiest ]; kill_links = [] } in
          let recovery =
            match Netsim.run_with_fault m fault with
            | Error e -> "error " ^ e
            | Ok r ->
              Printf.sprintf "pre=%d migration=%d post=%d makespan=%d moved=%d repaired=%s"
                r.Netsim.rv_pre_time r.Netsim.rv_migration_time r.Netsim.rv_post_time
                r.Netsim.rv_makespan (Repair.moved r.Netsim.rv_repair)
                (Digest.to_hex
                   (Digest.string (ints (Mapping.assignment r.Netsim.rv_repair.Repair.rp_mapping))))
          in
          [ Printf.sprintf "%s: %s" spec (describe_mapping m);
            Printf.sprintf "%s fault@%d: %s" spec busiest recovery ])
      [ "synth:grid:4096"; "synth:rmat:3000" ]
  in
  ("large", lines)

(* --- the per-channel span timeline --------------------------------- *)

let spans_group () =
  let lines =
    List.concat_map
      (fun (wname, c) ->
        List.concat_map
          (fun tname ->
            let t = topo tname in
            match Driver.map_compiled c t with
            | Error e -> [ Printf.sprintf "%s %s: error %s" wname tname e ]
            | Ok m ->
              List.map
                (fun cp ->
                  let name = cp.Taskgraph.cp_name in
                  Printf.sprintf "%s %s %s: %s" wname tname name
                    (String.concat " "
                       (List.map
                          (fun s ->
                            Printf.sprintf "%s@%d-%d/%d" (Netsim.channel_name t s.Netsim.sp_channel)
                              s.Netsim.sp_start s.Netsim.sp_finish s.Netsim.sp_volume)
                          (Netsim.spans m name))))
                m.Mapping.tg.Taskgraph.comm_phases)
          [ "torus:4x4"; "hypercube:3" ])
      (Lazy.force compiled)
  in
  ("spans", lines)

let groups () =
  List.concat_map (fun t -> List.map (mapping_group t) specs) topologies
  @ List.map fuel_group [ ("none", Constraints.none); ("forbid", { Constraints.none with Constraints.forbids }) ]
  @ List.map recover_group [ ("none", Constraints.none); ("forbid", { Constraints.none with Constraints.forbids }) ]
  @ [ incremental_group (); cluster_group (); large_group (); spans_group () ]

let digest lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

(* recorded before the placers were unified onto one greedy rule *)
let expected =
  [
    ("map hypercube:3 none", "eeb962953ce4553f1d4233fc090fab45");
    ("map hypercube:3 pin", "2b06efaa7f365ab9bd918632c77df578");
    ("map hypercube:3 pin+require", "15ea5a7c0984e34bc6c366e03e4940e9");
    ("map hypercube:3 forbid", "4703669b113be71e62a6e9eb2e5e4d24");
    ("map hypercube:3 skip", "bf56b0622d4e41e76035d00f7f4a39fb");
    ("map mesh:4x4 none", "a2a837ed3d9faaa970a0b0f501c801a2");
    ("map mesh:4x4 pin", "16f1892a25ab55fa601b783e0fdcb40a");
    ("map mesh:4x4 pin+require", "15ea5a7c0984e34bc6c366e03e4940e9");
    ("map mesh:4x4 forbid", "33c83eff7079441b2baf76d2bfaa3948");
    ("map mesh:4x4 skip", "263ff3bb40d71bd83e219c588c16f8ca");
    ("map torus:4x4 none", "d02948d835fc2e04968b8ca8bd5ebc75");
    ("map torus:4x4 pin", "66da4de6943409ff8aaeadb35981ab3d");
    ("map torus:4x4 pin+require", "15ea5a7c0984e34bc6c366e03e4940e9");
    ("map torus:4x4 forbid", "2787fcbf39eb7c62ebac335526e580fa");
    ("map torus:4x4 skip", "5119b7ea855cfa1018e745f00ba1326e");
    ("map ring:8 none", "916e2463317ed5943bd9e0d51384e404");
    ("map ring:8 pin", "9502d5d9d3d2853698890e626632f3f7");
    ("map ring:8 pin+require", "15ea5a7c0984e34bc6c366e03e4940e9");
    ("map ring:8 forbid", "8134528de37eeebbb1133e6f7917a957");
    ("map ring:8 skip", "3c2922803324b73af22986789a50c8ea");
    ("map classed none", "d02948d835fc2e04968b8ca8bd5ebc75");
    ("map classed pin", "66da4de6943409ff8aaeadb35981ab3d");
    ("map classed pin+require", "5297b5b1d6e42b88aa242fd32943b635");
    ("map classed forbid", "2787fcbf39eb7c62ebac335526e580fa");
    ("map classed skip", "3722741658d921f0cd7b46b62e61947f");
    ("fuel none", "a08ac84c84666441a6636396ad0a8894");
    ("fuel forbid", "36d23318e7afff0d880f590027f0c0ed");
    ("recover none", "d99fddf8d37a213c407e0bdda060d24e");
    ("recover forbid", "4d3fc4f0cead31c09507bd9dae4ccf69");
    ("incremental", "1a303e7ecbfb8bfcc30e48d81a303d80");
    ("cluster", "3dc9766fdf73cb05bcbaefe7d7603303");
    ("large", "d1c1c704442e619e12dc2cc81ba1261c");
    ("spans", "01f10a598980dae6339b4864b4fac770");
  ]

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--dump" then
    List.iter
      (fun (name, lines) ->
        List.iter (fun l -> Printf.printf "%s | %s\n" name l) lines;
        Printf.printf "digest %S %S\n" name (digest lines))
      (groups ())
  else begin
    let groups = lazy (groups ()) in
    Alcotest.run "placers"
      [
        ( "placers",
          List.map
            (fun (name, want) ->
              Alcotest.test_case name `Quick (fun () ->
                  match List.assoc_opt name (Lazy.force groups) with
                  | None -> Alcotest.failf "no group %S" name
                  | Some lines -> Alcotest.(check string) name want (digest lines)))
            expected );
      ]
  end
