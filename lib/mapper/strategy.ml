module Compile = Oregami_larcs.Compile
module Analyze = Oregami_larcs.Analyze
module Taskgraph = Oregami_taskgraph.Taskgraph
module Topology = Oregami_topology.Topology
module Recurrence = Oregami_systolic.Recurrence
module Synthesis = Oregami_systolic.Synthesis

type placement = Placed of int array | Embed

type candidate = {
  label : string;
  clusters : int;
  cluster_of : int array;
  placement : placement;
}

type tier = Dispatch | Compete

type t = {
  name : string;
  tier : tier;
  default_on : bool;
  doc : string;
  available : Ctx.t -> (unit, string) result;
  produce : Ctx.t -> (candidate list, string) result;
}

let always _ = Ok ()

(* mirror image of Multilevel.available: the quadratic-ish flat
   contractions stand aside on graphs beyond their sweet spot — at
   10^5 tasks MWM-Contract takes minutes and KL/Stone hours — unless
   the user forces them by name *)
let fits_flat name ctx =
  let n = ctx.Ctx.tg.Taskgraph.n in
  let threshold = ctx.Ctx.options.Ctx.multilevel_threshold in
  if n <= threshold then Ok ()
  else if List.mem name ctx.Ctx.options.Ctx.only then Ok ()
  else
    Error
      (Printf.sprintf
         "graph exceeds the flat sweet spot (%d > %d tasks), multilevel territory; force with --only %s"
         n threshold name)

(* strategies that emit a fixed [Placed] assignment without consulting
   the feasibility predicate must decline constrained runs by name;
   the [Embed] producers respect constraints through the shared
   NN-Embed/Refine candidate filter instead *)
let unconstrained what ctx =
  if not (Ctx.constrained ctx) then Ok ()
  else
    Error
      (Printf.sprintf
         "constraints present: %s is constraint-unaware (pins/requires/forbids need the \
          embedding strategies)"
         what)

(* canned tables, lattice placement and coset contraction all assume the
   intact network symmetry; on a degraded machine they would place onto
   dead processors or assert structure that no longer holds *)
let intact what ctx =
  if not (Ctx.degraded ctx) then Ok ()
  else begin
    let detail =
      if Oregami_topology.Faults.is_empty ctx.Ctx.faults then Topology.name ctx.Ctx.topo
      else Oregami_topology.Faults.describe ctx.Ctx.faults
    in
    Error (Printf.sprintf "degraded topology (%s): %s requires the intact network" detail what)
  end

(* ------------------------------------------------------------------ *)
(* canned: nameable families via the (family, topology) lookup table  *)

let canned_produce ctx =
  let tg = ctx.Ctx.tg in
  let attempt family dims relabel =
    match Canned.lookup ?dims ~family ~n:tg.Taskgraph.n ctx.Ctx.topo with
    | None ->
      Error (Printf.sprintf "no canned entry for family %S on this topology" family)
    | Some c ->
      let cluster_of =
        match relabel with
        | None -> c.Canned.cluster_of
        | Some r -> Array.init tg.Taskgraph.n (fun t -> c.Canned.cluster_of.(r.(t)))
      in
      Ok
        [
          {
            label = Printf.sprintf "canned:%s" family;
            clusters = Array.length c.Canned.proc_of_cluster;
            cluster_of;
            placement = Placed c.Canned.proc_of_cluster;
          };
        ]
  in
  match tg.Taskgraph.declared_family with
  | Some family ->
    (* a declared family asserts the natural numbering *)
    attempt family (Ctx.mesh_dims ctx) None
  | None -> begin
    match Ctx.family ctx with
    | Some m ->
      let dims =
        match m.Analyze.fam_dims with Some _ as d -> d | None -> Ctx.mesh_dims ctx
      in
      attempt m.Analyze.fam_name dims (Some m.Analyze.relabel)
    | None -> Error "no declared or detected graph family"
  end

(* ------------------------------------------------------------------ *)
(* systolic: uniform dependences (identity affine maps) on a 2-D or   *)
(* 3-D lattice, placed directly or via space-time projection          *)

let systolic_produce ctx =
  match (ctx.Ctx.compiled, Ctx.analysis ctx) with
  | None, _ | _, None -> Error "no compiled program (bare task graph)"
  | Some compiled, Some a -> begin
    match (a.Analyze.affine_maps, compiled.Compile.spaces) with
    | None, _ -> Error "communication is not affine on a single lattice"
    | Some _, ([] | _ :: _ :: _) -> Error "program does not declare a single node space"
    | Some maps, [ space ] -> begin
      let dims = space.Compile.dims in
      let d = List.length dims in
      let identity m =
        Array.length m.Analyze.matrix = d
        && begin
             let ok = ref true in
             Array.iteri
               (fun i row ->
                 Array.iteri
                   (fun j v ->
                     let want = if i = j then 1 else 0 in
                     if v <> want then ok := false)
                   row)
               m.Analyze.matrix;
             !ok
           end
      in
      let uniform = List.for_all (fun (_, ms) -> List.for_all identity ms) maps in
      if not uniform then Error "dependences are not uniform (non-identity linear parts)"
      else if d = 2 then begin
        (* tasks on a 2-D lattice with uniform deps: place the lattice
           directly on a processor mesh when it fits *)
        match Topology.kind ctx.Ctx.topo with
        | Topology.Mesh (pr, pc) ->
          let r = let lo, hi = List.nth dims 0 in hi - lo + 1 in
          let c = let lo, hi = List.nth dims 1 in hi - lo + 1 in
          if r <= pr && c <= pc then begin
            let n = compiled.Compile.graph.Taskgraph.n in
            let cluster_of = Array.init n (fun t -> t) in
            let proc_of_cluster =
              Array.init n (fun t ->
                  match Compile.node_label_values compiled t with
                  | [ i; j ] ->
                    let lo0, _ = List.nth dims 0 and lo1, _ = List.nth dims 1 in
                    ((i - lo0) * pc) + (j - lo1)
                  | _ -> 0)
            in
            Ok
              [
                {
                  label = "systolic:lattice";
                  clusters = n;
                  cluster_of;
                  placement = Placed proc_of_cluster;
                };
              ]
          end
          else Error (Printf.sprintf "%dx%d lattice does not fit the %dx%d mesh" r c pr pc)
        | Topology.Line _ | Topology.Ring _ | Topology.Torus _ | Topology.Hypercube _
        | Topology.Complete _ | Topology.Binary_tree _ | Topology.Binomial_tree _
        | Topology.Butterfly _ | Topology.Cube_connected_cycles _ | Topology.Hex_mesh _
        | Topology.Star_graph _ | Topology.De_bruijn _ | Topology.Shuffle_exchange _ ->
          Error "2-D lattice placement needs a mesh target"
      end
      else if d = 3 then begin
        (* 3-D uniform recurrence: synthesize a space-time design and
           contract each task to its projected processor (paper
           section 4.2.1: "many of the systolic array synthesis
           algorithms ... can be used to perform the mappings") *)
        match Topology.kind ctx.Ctx.topo with
        | Topology.Mesh (pr, pc) -> begin
          let deps =
            List.concat_map
              (fun (name, ms) ->
                List.mapi
                  (fun i (mm : Analyze.affine_map) ->
                    (* rule x -> x + b: the receiver consumes what x
                       produced, so the dependence vector is b itself *)
                    { Recurrence.dep_name = Printf.sprintf "%s%d" name i;
                      vector = Array.copy mm.Analyze.offset })
                  ms)
              maps
            |> List.filter (fun dep -> Array.exists (( <> ) 0) dep.Recurrence.vector)
          in
          let domain =
            {
              Recurrence.lower = Array.of_list (List.map fst dims);
              upper = Array.of_list (List.map snd dims);
              halfspaces = [];
            }
          in
          let r = { Recurrence.name = "larcs"; domain; deps } in
          match Synthesis.synthesize r with
          | Error e -> Error ("space-time synthesis failed: " ^ e)
          | Ok design -> begin
            let n = compiled.Compile.graph.Taskgraph.n in
            let pes =
              Array.init n (fun t ->
                  let x = Array.of_list (Compile.node_label_values compiled t) in
                  Oregami_systolic.Linalg.mat_vec design.Synthesis.allocation x)
            in
            (* normalise PE coordinates to a grid *)
            let d2 = 2 in
            let lows = Array.copy pes.(0) and highs = Array.copy pes.(0) in
            Array.iter
              (fun pe ->
                for i = 0 to d2 - 1 do
                  if pe.(i) < lows.(i) then lows.(i) <- pe.(i);
                  if pe.(i) > highs.(i) then highs.(i) <- pe.(i)
                done)
              pes;
            let er = highs.(0) - lows.(0) + 1 and ec = highs.(1) - lows.(1) + 1 in
            if er <= pr && ec <= pc then begin
              (* dense cluster ids over occupied PE cells *)
              let ids = Hashtbl.create 64 in
              let cluster_of =
                Array.map
                  (fun pe ->
                    let key = ((pe.(0) - lows.(0)) * ec) + (pe.(1) - lows.(1)) in
                    match Hashtbl.find_opt ids key with
                    | Some c -> c
                    | None ->
                      let c = Hashtbl.length ids in
                      Hashtbl.add ids key c;
                      c)
                  pes
              in
              let proc_of_cluster = Array.make (Hashtbl.length ids) 0 in
              Hashtbl.iter
                (fun key c -> proc_of_cluster.(c) <- ((key / ec) * pc) + (key mod ec))
                ids;
              Ok
                [
                  {
                    label = "systolic:projection";
                    clusters = Hashtbl.length ids;
                    cluster_of;
                    placement = Placed proc_of_cluster;
                  };
                ]
            end
            else
              Error
                (Printf.sprintf "projected %dx%d PE array does not fit the %dx%d mesh" er
                   ec pr pc)
          end
        end
        | Topology.Line _ | Topology.Ring _ | Topology.Torus _ | Topology.Hypercube _
        | Topology.Complete _ | Topology.Binary_tree _ | Topology.Binomial_tree _
        | Topology.Butterfly _ | Topology.Cube_connected_cycles _ | Topology.Hex_mesh _
        | Topology.Star_graph _ | Topology.De_bruijn _ | Topology.Shuffle_exchange _ ->
          Error "systolic projection needs a mesh target"
      end
      else Error (Printf.sprintf "%d-dimensional lattice (only 2-D and 3-D supported)" d)
    end
  end

(* ------------------------------------------------------------------ *)
(* group: Cayley-graph coset contraction                              *)

let group_produce ctx =
  let tg = ctx.Ctx.tg in
  let procs = min (Ctx.procs ctx) tg.Taskgraph.n in
  match Group_contract.contract ~budget:ctx.Ctx.budget tg ~procs with
  | Error e -> Error e
  | Ok g ->
    Ok
      [
        {
          label = "group-theoretic";
          clusters = Array.length g.Group_contract.clusters;
          cluster_of = g.Group_contract.cluster_of;
          placement = Embed;
        };
      ]

(* ------------------------------------------------------------------ *)
(* general-path contractions, embedded by the shared NN-Embed pass    *)

let mwm_produce ctx =
  match
    Mwm_contract.contract ~budget:ctx.Ctx.budget
      (Ctx.static ctx) ~procs:(Ctx.procs ctx)
  with
  | Error e -> Error e
  | Ok r ->
    Ok
      [
        {
          label = "mwm+nn";
          clusters = Array.length r.Mwm_contract.clusters;
          cluster_of = r.Mwm_contract.cluster_of;
          placement = Embed;
        };
      ]

let tiled_produce ctx =
  let tg = ctx.Ctx.tg in
  match Ctx.mesh_dims ctx with
  | Some [ rows; cols ] when rows * cols = tg.Taskgraph.n -> begin
    match Tiled.contract ~rows ~cols ~procs:(Ctx.procs ctx) with
    | [] -> Error "no feasible processor-grid factorization"
    | tilings ->
      Ok
        (List.map
           (fun (cluster_of, k) ->
             { label = "tiled+nn"; clusters = k; cluster_of; placement = Embed })
           tilings)
  end
  | Some _ | None -> Error "program does not declare a single 2-D task lattice"

let blocks_produce ctx =
  let n = ctx.Ctx.tg.Taskgraph.n in
  let k = min n (Ctx.procs ctx) in
  let cluster_of = Array.init n (fun i -> i * k / n) in
  Ok [ { label = "blocks+nn"; clusters = k; cluster_of; placement = Embed } ]

let multilevel_produce ctx =
  match Multilevel.run ctx with
  | Error e -> Error e
  | Ok r ->
    Ok
      [
        {
          label = "multilevel";
          clusters = Array.length r.Multilevel.ml_proc_of_cluster;
          cluster_of = r.Multilevel.ml_cluster_of;
          placement = Placed r.Multilevel.ml_proc_of_cluster;
        };
      ]

let kl_produce ctx =
  let n = ctx.Ctx.tg.Taskgraph.n in
  let parts = min (Ctx.procs ctx) n in
  let cluster_of = Kl.partition ~budget:ctx.Ctx.budget (Ctx.static ctx) ~parts in
  let k = 1 + Array.fold_left max (-1) cluster_of in
  Ok [ { label = "kl+nn"; clusters = k; cluster_of; placement = Embed } ]

let stone_produce ctx =
  let tg = ctx.Ctx.tg in
  let procs = Ctx.procs ctx in
  if procs < 2 || procs land (procs - 1) <> 0 then
    Error "recursive bisection needs a power-of-two processor count"
  else begin
    let n = tg.Taskgraph.n in
    let cost = Array.make n 0 in
    List.iter
      (fun (ep : Taskgraph.exec_phase) ->
        Array.iteri (fun t c -> cost.(t) <- cost.(t) + c) ep.Taskgraph.costs)
      tg.Taskgraph.exec_phases;
    let proc_of_task =
      Stone.recursive_bisection ~budget:ctx.Ctx.budget ~procs ~cost
        ~comm:(Ctx.static ctx) ()
    in
    let cluster_of, procs_used = Mapping.clusters proc_of_task in
    Ok
      [
        {
          label = "stone+nn";
          clusters = Array.length procs_used;
          cluster_of;
          placement = Embed;
        };
      ]
  end

(* ------------------------------------------------------------------ *)
(* naive baselines (paper §1's uninformed placements), registry-       *)
(* reachable for ablations via --only                                  *)

let baseline label make ctx =
  let n = ctx.Ctx.tg.Taskgraph.n in
  let cluster_of, proc_of_cluster = make ctx ~n ~procs:(Ctx.procs ctx) in
  (* the identity embedding is over alive-processor ranks; translate to
     real processor ids (the identity on a pristine topology) *)
  let proc_of_cluster = Array.map (fun c -> ctx.Ctx.alive.(c)) proc_of_cluster in
  Ok
    [
      {
        label;
        clusters = Array.length proc_of_cluster;
        cluster_of;
        placement = Placed proc_of_cluster;
      };
    ]

let registry () =
  [
    {
      name = "canned";
      tier = Dispatch;
      default_on = true;
      doc = "canned contraction/embedding for nameable families (\u{00a7}4.1)";
      available =
        (fun ctx ->
          match intact "canned" ctx with
          | Error _ as e -> e
          | Ok () -> unconstrained "canned" ctx);
      produce = canned_produce;
    };
    {
      name = "systolic";
      tier = Dispatch;
      default_on = true;
      doc = "uniform-recurrence lattice placement / space-time projection (\u{00a7}4.2.1)";
      available =
        (fun ctx ->
          if ctx.Ctx.compiled = None then Error "no compiled program (bare task graph)"
          else
            match intact "systolic" ctx with
            | Error _ as e -> e
            | Ok () -> unconstrained "systolic" ctx);
      produce = systolic_produce;
    };
    {
      name = "group";
      tier = Dispatch;
      default_on = true;
      doc = "Cayley-graph coset contraction (\u{00a7}4.2.2)";
      available = intact "group";
      produce = group_produce;
    };
    {
      name = "mwm";
      tier = Compete;
      default_on = true;
      doc = "Algorithm MWM-Contract: greedy merge + maximum-weight matching (\u{00a7}4.3)";
      available = fits_flat "mwm";
      produce = mwm_produce;
    };
    {
      name = "tiled";
      tier = Compete;
      default_on = true;
      doc = "balanced 2-D tile contractions of grid programs";
      available = always;
      produce = tiled_produce;
    };
    {
      name = "blocks";
      tier = Compete;
      default_on = true;
      doc = "balanced consecutive blocks along the task numbering";
      available =
        (fun ctx ->
          (* parity with the seed dispatch: the block linearization only
             competed on the compiled-program path *)
          if ctx.Ctx.compiled = None then Error "bare task graph (compiled-path strategy)"
          else Ok ());
      produce = blocks_produce;
    };
    {
      name = "multilevel";
      tier = Compete;
      default_on = true;
      doc = "multilevel coarsen/map/refine tier for graphs beyond the flat sweet spot";
      available = Multilevel.available;
      produce = multilevel_produce;
    };
    {
      name = "kl";
      tier = Compete;
      default_on = false;
      doc = "Kernighan-Lin recursive bisection (ablation contraction engine)";
      available = fits_flat "kl";
      produce = kl_produce;
    };
    {
      name = "stone";
      tier = Compete;
      default_on = false;
      doc = "Stone-style max-flow assignment, recursive bisection extension";
      available = fits_flat "stone";
      produce = stone_produce;
    };
    {
      name = "random";
      tier = Compete;
      default_on = false;
      doc = "random balanced placement (draws from the ctx RNG seed)";
      available = unconstrained "random";
      produce =
        baseline "random" (fun ctx ~n ~procs -> Baselines.random ctx.Ctx.rng ~n ~procs);
    };
    {
      name = "naive-block";
      tier = Compete;
      default_on = false;
      doc = "consecutive blocks on the identity embedding (no NN-Embed)";
      available = unconstrained "naive-block";
      produce = baseline "block" (fun _ ~n ~procs -> Baselines.block ~n ~procs);
    };
    {
      name = "round-robin";
      tier = Compete;
      default_on = false;
      doc = "round-robin dealing on the identity embedding";
      available = unconstrained "round-robin";
      produce = baseline "round-robin" (fun _ ~n ~procs -> Baselines.round_robin ~n ~procs);
    };
  ]

let names () = List.map (fun s -> s.name) (registry ())

let find name = List.find_opt (fun s -> s.name = name) (registry ())

let select (options : Ctx.options) =
  let all = registry () in
  let known = List.map (fun s -> s.name) all in
  let unknown = List.filter (fun n -> not (List.mem n known)) in
  match unknown options.Ctx.only @ unknown options.Ctx.exclude with
  | _ :: _ as bad ->
    Error
      (Printf.sprintf "unknown strategies: %s (known: %s)" (String.concat ", " bad)
         (String.concat ", " known))
  | [] ->
    let picked =
      if options.Ctx.only <> [] then
        List.filter (fun s -> List.mem s.name options.Ctx.only) all
      else List.filter (fun s -> s.default_on) all
    in
    let picked = List.filter (fun s -> not (List.mem s.name options.Ctx.exclude)) picked in
    if picked = [] then Error "strategy selection is empty" else Ok picked
