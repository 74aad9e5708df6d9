(* The per-run mapping context.  Everything mutable in here — the RNG,
   the stats sink, the budget meter — is created fresh by [make] and
   owned by exactly one pipeline run, so a pool of domains can each
   build their own Ctx against {e shared} read-only inputs (one
   compiled program, one topology whose Distcache publishes its hop
   matrix once) and still get per-request determinism: same seed, same
   mapping, under any number of concurrent runs.  The only cross-run
   mutable state a Ctx carries is the circuit [breaker], which is
   domain-safe by construction (atomic counters). *)

module Compile = Oregami_larcs.Compile
module Analyze = Oregami_larcs.Analyze
module Taskgraph = Oregami_taskgraph.Taskgraph
module Topology = Oregami_topology.Topology
module Distcache = Oregami_topology.Distcache
module Faults = Oregami_topology.Faults
module Rng = Oregami_prelude.Rng

type routing = Mm_route | Oblivious | Coarse | Auto

let routing_of_string = function
  (* "mm" is the historical spelling; keep it as an alias *)
  | "mm" | "mm-route" -> Ok Mm_route
  | "oblivious" -> Ok Oblivious
  | "coarse" -> Ok Coarse
  | "auto" -> Ok Auto
  | other ->
    Error
      (Printf.sprintf "unknown routing %S (valid: mm-route, oblivious, coarse, auto)" other)

type options = {
  routing : routing;
  route_cap : int;
  jobs : int;
  refine : bool;
  seed : int;
  only : string list;
  exclude : string list;
  fuel : int option;
  deadline_ms : float option;
  fallback : bool;
  constraints : Constraints.spec;
  multilevel_threshold : int;
}

let default_options =
  {
    routing = Auto;
    route_cap = 64;
    jobs = 1;
    refine = true;
    seed = 2026;
    only = [];
    exclude = [];
    fuel = None;
    deadline_ms = None;
    fallback = false;
    constraints = Constraints.none;
    (* keep in sync with the flat/multilevel gate the seed shipped with
       (Multilevel.flat_sweet_spot) *)
    multilevel_threshold = 2048;
  }

type t = {
  compiled : Compile.compiled option;
  family : Analyze.family_match option Lazy.t;
  analysis : Analyze.t option Lazy.t;
  tg : Taskgraph.t;
  topo : Topology.t;
  dist : Distcache.t;
  static : Oregami_graph.Ugraph.t Lazy.t;
  rng : Rng.t;
  options : options;
  stats : Stats.t;
  faults : Faults.t;
  alive : int array;
  placeable : int array;
  constraints : Constraints.t;
  budget : Budget.t;
  breaker : Isolate.breaker;
}

let make ?(options = default_options) ?(faults = Faults.none) ?breaker
    ?compiled tg topo =
  let stats = Stats.create () in
  (* The deadline clock starts here, so cache warm-up counts against
     the request's budget like any other work. *)
  let budget =
    if options.fuel = None && options.deadline_ms = None then
      Budget.unlimited ()
    else Budget.create ?fuel:options.fuel ?deadline_ms:options.deadline_ms ()
  in
  (* warm the topology's distance cache up front: every strategy
     shares the one hop matrix (built in parallel for large
     networks) instead of racing to build it mid-evaluation.  For a
     degraded topology this builds against the surviving graph (the
     degraded value starts with an empty cache slot). *)
  let dist, dist_s = Oregami_prelude.Clock.time (fun () -> Distcache.hops topo) in
  Stats.add_phase_seconds stats "distcache" dist_s;
  let constraints = Constraints.compile options.constraints tg topo in
  let alive = Array.of_list (Topology.alive_procs topo) in
  let placeable =
    if Constraints.active constraints then
      Array.of_list
        (List.filter (fun p -> not (Constraints.skip_proc constraints p))
           (Array.to_list alive))
    else alive
  in
  (* one family detection per run, over the static graph the other
     strategies share, read by the canned strategy and the analysis *)
  let static = lazy (Taskgraph.static_graph tg) in
  let family = lazy (Analyze.detect_family_match ~static:(Lazy.force static) tg) in
  {
    compiled;
    family;
    analysis =
      lazy (Option.map (fun c -> Analyze.analyze ~family:(Lazy.force family) c) compiled);
    tg;
    topo;
    dist;
    static;
    rng = Rng.create options.seed;
    options;
    stats;
    faults;
    alive;
    placeable;
    constraints;
    budget;
    breaker = (match breaker with Some b -> b | None -> Isolate.breaker ());
  }

let of_compiled ?options ?faults ?breaker compiled topo =
  make ?options ?faults ?breaker ~compiled compiled.Compile.graph topo

let of_taskgraph ?options ?faults ?breaker tg topo =
  make ?options ?faults ?breaker tg topo

let degraded ctx = Topology.is_degraded ctx.topo || not (Faults.is_empty ctx.faults)

let family ctx = Lazy.force ctx.family
let analysis ctx = Lazy.force ctx.analysis
let static ctx = Lazy.force ctx.static

let mesh_dims ctx =
  match ctx.compiled with
  | None -> None
  | Some compiled -> begin
    match compiled.Compile.spaces with
    | [ space ] -> begin
      match space.Compile.dims with
      | [ (l1, h1); (l2, h2) ] -> Some [ h1 - l1 + 1; h2 - l2 + 1 ]
      | _ -> None
    end
    | [] | _ :: _ :: _ -> None
  end

(* processors a strategy may actually use: on a degraded topology the
   dead ones are not placement targets, and under constraints the
   skip-placement classes are excluded too *)
let procs ctx = Array.length ctx.placeable

let constrained ctx = Constraints.active ctx.constraints

(* [Auto] follows the same gate as the multilevel tier: the flat-tier
   sizes keep exact per-message MM-Route, the large tier (where the
   multilevel strategy takes over and routing dominates wall-clock)
   switches to the traffic-aggregated coarse router.  An explicit
   routing choice is always respected. *)
let resolve_routing ctx =
  match ctx.options.routing with
  | Auto ->
    if ctx.tg.Taskgraph.n > ctx.options.multilevel_threshold then Coarse
    else Mm_route
  | r -> r
