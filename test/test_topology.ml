(* Tests for the topology library: family constructions, link tables,
   routing tables, Gray codes. *)

module Topology = Oregami_topology.Topology
module Routes = Oregami_topology.Routes
module Distcache = Oregami_topology.Distcache
module Gray = Oregami_topology.Gray
module Ugraph = Oregami_graph.Ugraph
module Traverse = Oregami_graph.Traverse

let t k = Topology.make k

let test_counts () =
  let cases =
    [
      (Topology.Line 7, 7, 6);
      (Topology.Ring 8, 8, 8);
      (Topology.Ring 2, 2, 1);
      (Topology.Mesh (3, 4), 12, 17);
      (Topology.Torus (3, 4), 12, 24);
      (Topology.Torus (2, 4), 8, 12);
      (* r = 2: row wraps would duplicate existing vertical links *)
      (Topology.Hypercube 4, 16, 32);
      (Topology.Complete 6, 6, 15);
      (Topology.Binary_tree 3, 15, 14);
      (Topology.Binomial_tree 4, 16, 15);
      (Topology.Butterfly 2, 12, 16);
      (Topology.Cube_connected_cycles 3, 24, 36);
      (Topology.Star_graph 4, 24, 36);
    ]
  in
  List.iter
    (fun (kind, nodes, links) ->
      let topo = t kind in
      Alcotest.(check int) (Topology.name topo ^ " nodes") nodes (Topology.node_count topo);
      Alcotest.(check int) (Topology.name topo ^ " links") links (Topology.link_count topo))
    cases

let test_degrees_and_diameter () =
  let cube = t (Topology.Hypercube 3) in
  Alcotest.(check bool) "Q3 3-regular" true (Ugraph.is_regular (Topology.graph cube));
  Alcotest.(check int) "Q3 degree" 3 (Topology.degree cube 0);
  Alcotest.(check int) "Q3 diameter" 3 (Topology.diameter cube);
  Alcotest.(check int) "ring 9 diameter" 4 (Topology.diameter (t (Topology.Ring 9)));
  Alcotest.(check int) "mesh 3x4 diameter" 5 (Topology.diameter (t (Topology.Mesh (3, 4))));
  Alcotest.(check int) "torus 4x4 diameter" 4 (Topology.diameter (t (Topology.Torus (4, 4))));
  (* star graph S4: diameter floor(3(n-1)/2) = 4 *)
  Alcotest.(check int) "S4 diameter" 4 (Topology.diameter (t (Topology.Star_graph 4)));
  Alcotest.(check bool) "S4 3-regular" true
    (Ugraph.is_regular (Topology.graph (t (Topology.Star_graph 4))));
  (* CCC(3): 3-regular *)
  Alcotest.(check bool) "CCC3 3-regular" true
    (Ugraph.is_regular (Topology.graph (t (Topology.Cube_connected_cycles 3))))

let test_connectivity () =
  List.iter
    (fun kind ->
      let topo = t kind in
      Alcotest.(check bool) (Topology.name topo ^ " connected") true
        (Traverse.is_connected (Topology.graph topo)))
    [
      Topology.Line 5; Topology.Ring 6; Topology.Mesh (3, 3); Topology.Torus (3, 3);
      Topology.Hypercube 4; Topology.Complete 5; Topology.Binary_tree 3;
      Topology.Binomial_tree 4; Topology.Butterfly 3; Topology.Cube_connected_cycles 3;
      Topology.Hex_mesh (3, 4); Topology.Star_graph 4;
    ]

let test_link_table () =
  let topo = t (Topology.Hypercube 3) in
  (* 12 links, ids consistent with endpoints *)
  Alcotest.(check int) "12 links" 12 (Topology.link_count topo);
  for l = 0 to 11 do
    let u, v = Topology.link_endpoints topo l in
    Alcotest.(check bool) "ordered" true (u < v);
    Alcotest.(check (option int)) "roundtrip" (Some l) (Topology.link_between topo u v);
    Alcotest.(check (option int)) "symmetric" (Some l) (Topology.link_between topo v u)
  done;
  Alcotest.(check (option int)) "non-adjacent" None (Topology.link_between topo 0 7)

let test_links_of_path () =
  let topo = t (Topology.Mesh (2, 3)) in
  (* path 0-1-2-5 *)
  let links = Topology.links_of_path topo [ 0; 1; 2; 5 ] in
  Alcotest.(check int) "three hops" 3 (List.length links);
  Alcotest.check_raises "non adjacent"
    (Invalid_argument "Topology.links_of_path: 0 and 5 not adjacent") (fun () ->
      ignore (Topology.links_of_path topo [ 0; 5 ]))

let test_mesh_coords () =
  let topo = t (Topology.Mesh (3, 4)) in
  Alcotest.(check (pair int int)) "coords" (2, 1) (Topology.mesh_coords topo 9);
  Alcotest.(check int) "node" 9 (Topology.mesh_node topo (2, 1));
  Alcotest.check_raises "wrong kind"
    (Invalid_argument "Topology.mesh_coords: not a mesh-like topology") (fun () ->
      ignore (Topology.mesh_coords (t (Topology.Ring 4)) 0))

let test_parse () =
  List.iter
    (fun (s, expect) ->
      match Topology.parse s with
      | Ok k -> Alcotest.(check bool) s true (k = expect)
      | Error m -> Alcotest.failf "parse %s: %s" s m)
    [
      ("ring:8", Topology.Ring 8);
      ("mesh:3x4", Topology.Mesh (3, 4));
      ("torus:4x8", Topology.Torus (4, 8));
      ("hypercube:3", Topology.Hypercube 3);
      ("cube:5", Topology.Hypercube 5);
      ("line:9", Topology.Line 9);
      ("complete:4", Topology.Complete 4);
      ("bintree:2", Topology.Binary_tree 2);
      ("binomial:5", Topology.Binomial_tree 5);
      ("butterfly:3", Topology.Butterfly 3);
      ("ccc:3", Topology.Cube_connected_cycles 3);
      ("hex:2x3", Topology.Hex_mesh (2, 3));
      ("star:4", Topology.Star_graph 4);
    ];
  List.iter
    (fun s ->
      match Topology.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "expected parse error for %s" s)
    [ "ring"; "ring:x"; "mesh:4"; "mesh:4x"; "nosuch:4"; "hypercube:3x3" ]

(* sizes [make] would reject, and machines past the processor or link
   cap, are named parse errors; the largest machines under the caps
   still parse *)
let test_parse_sizes () =
  List.iter
    (fun (s, want) ->
      match Topology.parse s with
      | Ok _ -> Alcotest.failf "%s accepted" s
      | Error e -> Alcotest.(check string) s want e)
    [
      ("mesh:0x4", "mesh rows must be at least 1, got 0");
      ("torus:4x-2", "torus cols must be at least 1, got -2");
      ("ring:0", "ring size must be at least 1, got 0");
      ("hypercube:-1", "hypercube dimension must be at least 0, got -1");
      ("ccc:2", "ccc dimension must be at least 3, got 2");
      ("butterfly:0", "butterfly stages must be at least 1, got 0");
      ("star:1", "star order must be at least 2, got 1");
      ("star:9", "star order must be at most 7, got 9");
      ("debruijn:0", "debruijn order must be at least 1, got 0");
      ("ring:x", "ring size \"x\" is not an integer");
      ("mesh:4", "mesh dimensions \"4\" are not RxC");
      ("hypercube:70", "hypercube:70 exceeds the 8192-processor cap");
      ("bintree:13", "bintree:13 exceeds the 8192-processor cap");
      ("butterfly:10", "butterfly:10 exceeds the 8192-processor cap");
      ("ccc:10", "ccc:10 exceeds the 8192-processor cap");
      ("mesh:100x100", "mesh:100x100 exceeds the 8192-processor cap");
      ("complete:8193", "complete:8193 exceeds the 8192-processor cap");
      ("complete:363", "complete:363 exceeds the 65536-link cap");
      ("complete:8192", "complete:8192 exceeds the 65536-link cap");
      ("ring:4611686018427387903", "ring:4611686018427387903 exceeds the 8192-processor cap");
      ("torus:4611686018427387903x4611686018427387903",
       "torus:4611686018427387903x4611686018427387903 exceeds the 8192-processor cap");
    ];
  List.iter
    (fun s ->
      match Topology.parse s with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s refused: %s" s e)
    [ "hypercube:13"; "bintree:12"; "butterfly:9"; "ccc:9"; "star:7"; "torus:64x64";
      "mesh:8192x1"; "binomial:13"; "debruijn:13"; "shuffle:13"; "ring:8192";
      "complete:362" ]

let test_layout_distinct () =
  List.iter
    (fun kind ->
      let topo = t kind in
      let layout = Topology.layout topo in
      let seen = Hashtbl.create 16 in
      Array.iter
        (fun p ->
          if Hashtbl.mem seen p then Alcotest.failf "%s: overlapping layout" (Topology.name topo);
          Hashtbl.add seen p ())
        layout)
    [
      Topology.Line 5; Topology.Ring 7; Topology.Mesh (3, 3); Topology.Hypercube 4;
      Topology.Binary_tree 3; Topology.Butterfly 2; Topology.Hex_mesh (2, 3);
    ]

(* ------------------------------------------------------------------ *)

let test_gray () =
  Alcotest.(check (list int)) "3-bit sequence" [ 0; 1; 3; 2; 6; 7; 5; 4 ]
    (Array.to_list (Gray.sequence 3));
  for i = 0 to 255 do
    Alcotest.(check int) "decode inverse" i (Gray.decode (Gray.encode i))
  done;
  (* consecutive codewords differ in one bit, including the wrap *)
  for i = 0 to 7 do
    let a = Gray.encode i and b = Gray.encode ((i + 1) mod 8) in
    Alcotest.(check bool) "adjacent" true (Option.is_some (Gray.differ_bit a b))
  done;
  Alcotest.(check (option int)) "differ bit" (Some 1) (Gray.differ_bit 4 6);
  Alcotest.(check (option int)) "two bits differ" None (Gray.differ_bit 0 3);
  Alcotest.(check (option int)) "equal" None (Gray.differ_bit 5 5)

(* ------------------------------------------------------------------ *)

let check_route topo u v (r : Routes.route) =
  Alcotest.(check bool) "starts at u" true (List.hd r.Routes.nodes = u);
  Alcotest.(check bool) "ends at v" true (List.nth r.Routes.nodes (List.length r.Routes.nodes - 1) = v);
  Alcotest.(check (list int)) "links match nodes" (Topology.links_of_path topo r.Routes.nodes)
    r.Routes.links

let test_shortest_routes () =
  let topo = t (Topology.Hypercube 3) in
  let rs = Routes.shortest_routes topo 0 7 in
  Alcotest.(check int) "six routes" 6 (List.length rs);
  List.iter
    (fun r ->
      check_route topo 0 7 r;
      Alcotest.(check int) "three hops" 3 (Routes.hops r))
    rs;
  Alcotest.(check int) "same node" 0 (Routes.hops (List.hd (Routes.shortest_routes topo 2 2)))

let test_ecube () =
  let topo = t (Topology.Hypercube 3) in
  let r = Routes.ecube topo 0 7 in
  (* lowest bit first: 0 -> 1 -> 3 -> 7 *)
  Alcotest.(check (list int)) "ecube node order" [ 0; 1; 3; 7 ] r.Routes.nodes;
  check_route topo 0 7 r;
  Alcotest.check_raises "not a hypercube" (Invalid_argument "Routes.ecube: not a hypercube")
    (fun () -> ignore (Routes.ecube (t (Topology.Ring 4)) 0 1))

let test_dimension_order () =
  let topo = t (Topology.Mesh (3, 4)) in
  (* 0 = (0,0) to 11 = (2,3): columns first *)
  let r = Routes.dimension_order topo 0 11 in
  Alcotest.(check (list int)) "row-major walk" [ 0; 1; 2; 3; 7; 11 ] r.Routes.nodes;
  check_route topo 0 11 r;
  (* torus goes the short way round *)
  let torus = t (Topology.Torus (1, 6)) in
  ignore torus;
  let torus = t (Topology.Torus (3, 6)) in
  let r = Routes.dimension_order torus 0 5 in
  Alcotest.(check (list int)) "wrap" [ 0; 5 ] r.Routes.nodes

let test_deterministic () =
  List.iter
    (fun kind ->
      let topo = t kind in
      let n = Topology.node_count topo in
      for u = 0 to min 5 (n - 1) do
        for v = 0 to min 5 (n - 1) do
          if u <> v then begin
            let r = Distcache.deterministic topo u v in
            check_route topo u v r
          end
        done
      done)
    [ Topology.Hypercube 3; Topology.Mesh (2, 4); Topology.Torus (3, 3);
      Topology.Ring 6; Topology.Binary_tree 3; Topology.Butterfly 2 ]

let test_route_table () =
  let topo = t (Topology.Ring 5) in
  let table = Routes.route_table topo in
  Alcotest.(check int) "all pairs" 25 (Hashtbl.length table);
  let rs = Hashtbl.find table (0, 2) in
  Alcotest.(check int) "unique shortest on odd ring" 1 (List.length rs)

(* Property tests: the link table (link ids <-> endpoints <-> paths)
   must agree with the underlying graph on every topology family, and
   on degraded views of each family. *)

module Faults = Oregami_topology.Faults

let all_kinds =
  [
    Topology.Line 6; Topology.Ring 7; Topology.Mesh (3, 4); Topology.Torus (3, 4);
    Topology.Hypercube 3; Topology.Complete 5; Topology.Binary_tree 3;
    Topology.Binomial_tree 3; Topology.Butterfly 2; Topology.Cube_connected_cycles 3;
    Topology.Hex_mesh (3, 3); Topology.Star_graph 3; Topology.De_bruijn 3;
    Topology.Shuffle_exchange 3;
  ]

let test_topologies =
  let pristine = List.map t all_kinds in
  (* degraded variants: kill the highest-numbered processor where that
     leaves the survivors connected *)
  let degraded =
    List.filter_map
      (fun topo ->
        match Faults.make ~procs:[ Topology.node_count topo - 1 ] topo with
        | Error _ -> None
        | Ok f -> begin
          match Faults.degrade topo f with
          | Ok v -> Some v.Faults.topo
          | Error _ -> None
        end)
      pristine
  in
  pristine @ degraded

let check_link_table_consistency topo =
  let name = Topology.name topo in
  let g = Topology.graph topo in
  (* every link id round-trips through its ordered endpoints *)
  for l = 0 to Topology.link_count topo - 1 do
    let u, v = Topology.link_endpoints topo l in
    if not (u < v) then
      QCheck.Test.fail_reportf "%s: link %d endpoints (%d,%d) not ordered" name l u v;
    if Topology.link_between topo u v <> Some l then
      QCheck.Test.fail_reportf "%s: link_between %d %d lost link %d" name u v l;
    if Topology.link_between topo v u <> Some l then
      QCheck.Test.fail_reportf "%s: link_between not order-insensitive on link %d" name l
  done;
  (* and the table covers exactly the graph's adjacency *)
  let n = Topology.node_count topo in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      match Topology.link_between topo u v with
      | Some l ->
        let a, b = Topology.link_endpoints topo l in
        if (a, b) <> (min u v, max u v) then
          QCheck.Test.fail_reportf "%s: link %d is %d-%d, not %d-%d" name l a b u v
      | None ->
        if u <> v && Ugraph.mem_edge g u v then
          QCheck.Test.fail_reportf "%s: edge %d-%d has no link id" name u v
    done
  done;
  true

let qcheck_link_table =
  QCheck.Test.make ~name:"link table agrees with the graph on every family" ~count:28
    (QCheck.make (QCheck.Gen.oneofl test_topologies) ~print:Topology.name)
    check_link_table_consistency

let qcheck_links_of_path =
  (* a deterministic route's node path converts back to exactly its
     link list, on pristine and degraded machines alike *)
  let gen =
    QCheck.Gen.(
      let* topo = oneofl test_topologies in
      let alive = Array.of_list (Topology.alive_procs topo) in
      let* u = oneofl (Array.to_list alive) in
      let* v = oneofl (Array.to_list alive) in
      return (topo, u, v))
  in
  let print (topo, u, v) = Printf.sprintf "%s: %d -> %d" (Topology.name topo) u v in
  QCheck.Test.make ~name:"links_of_path inverts deterministic routes" ~count:500
    (QCheck.make gen ~print) (fun (topo, u, v) ->
      let r = Distcache.deterministic topo u v in
      let relinked = Topology.links_of_path topo r.Routes.nodes in
      if relinked <> r.Routes.links then
        QCheck.Test.fail_reportf "route links %s but path converts to %s"
          (String.concat "," (List.map string_of_int r.Routes.links))
          (String.concat "," (List.map string_of_int relinked));
      (* each traversed link joins the consecutive nodes it claims to *)
      List.iteri
        (fun i l ->
          let a = List.nth r.Routes.nodes i and b = List.nth r.Routes.nodes (i + 1) in
          let x, y = Topology.link_endpoints topo l in
          if (x, y) <> (min a b, max a b) then
            QCheck.Test.fail_reportf "hop %d uses link %d (%d-%d) between %d and %d" i l
              x y a b)
        r.Routes.links;
      List.length r.Routes.links = max 0 (List.length r.Routes.nodes - 1))

let qcheck_nonadjacent_no_link =
  let gen =
    QCheck.Gen.(
      let* topo = oneofl test_topologies in
      let n = Topology.node_count topo in
      let* u = int_range 0 (n - 1) in
      let* v = int_range 0 (n - 1) in
      return (topo, u, v))
  in
  let print (topo, u, v) = Printf.sprintf "%s: %d ? %d" (Topology.name topo) u v in
  QCheck.Test.make ~name:"link_between is None exactly off the graph" ~count:500
    (QCheck.make gen ~print) (fun (topo, u, v) ->
      let adjacent = u <> v && Ugraph.mem_edge (Topology.graph topo) u v in
      adjacent = Option.is_some (Topology.link_between topo u v))

(* Topology.shape is the closed form of make: same node and link
   counts, same adjacency, checked on every small size -- including
   r = 2 and c = 2, where a torus gets no wraparound in that dimension *)
let test_shape_closed_form () =
  let upto k = List.init k (fun i -> i + 1) in
  let grids f = List.concat_map (fun r -> List.map (fun c -> f (r, c)) (upto 7)) (upto 7) in
  let kinds =
    grids (fun (r, c) -> Topology.Mesh (r, c))
    @ grids (fun (r, c) -> Topology.Torus (r, c))
    @ List.init 8 (fun d -> Topology.Hypercube d)
    @ List.init 7 (fun d -> Topology.Binary_tree d)
    @ List.init 8 (fun k -> Topology.Binomial_tree k)
  in
  List.iter
    (fun kind ->
      let topo = t kind in
      let name = Topology.name topo in
      match Topology.shape kind with
      | None -> Alcotest.failf "%s: no closed-form shape" name
      | Some shape ->
        Alcotest.(check int) (name ^ " nodes") (Topology.node_count topo) shape.Topology.nodes;
        Alcotest.(check int) (name ^ " links") (Topology.link_count topo) shape.Topology.edges;
        Alcotest.(check int)
          (name ^ " graph edges")
          (Ugraph.edge_count (Topology.graph topo))
          shape.Topology.edges;
        for u = 0 to shape.Topology.nodes - 1 do
          for v = u + 1 to shape.Topology.nodes - 1 do
            if shape.Topology.linked u v <> Option.is_some (Topology.link_between topo u v) then
              Alcotest.failf "%s: linked %d %d disagrees with make" name u v
          done
        done)
    kinds;
  List.iter
    (fun kind ->
      Alcotest.(check bool) "no shape" true (Option.is_none (Topology.shape kind)))
    [ Topology.Ring 8; Topology.Line 5; Topology.Complete 4; Topology.Butterfly 2 ]

let () =
  Alcotest.run "topology"
    [
      ( "construction",
        [
          Alcotest.test_case "node and link counts" `Quick test_counts;
          Alcotest.test_case "degrees and diameters" `Quick test_degrees_and_diameter;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "link table" `Quick test_link_table;
          Alcotest.test_case "links_of_path" `Quick test_links_of_path;
          Alcotest.test_case "mesh coordinates" `Quick test_mesh_coords;
          Alcotest.test_case "parse" `Quick test_parse;
          Alcotest.test_case "parse names bad sizes and the cap" `Quick test_parse_sizes;
          Alcotest.test_case "layout distinct" `Quick test_layout_distinct;
        ] );
      ("gray", [ Alcotest.test_case "gray codes" `Quick test_gray ]);
      ( "routes",
        [
          Alcotest.test_case "shortest routes" `Quick test_shortest_routes;
          Alcotest.test_case "ecube" `Quick test_ecube;
          Alcotest.test_case "dimension order" `Quick test_dimension_order;
          Alcotest.test_case "deterministic everywhere" `Quick test_deterministic;
          Alcotest.test_case "route table" `Quick test_route_table;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_link_table;
          QCheck_alcotest.to_alcotest qcheck_links_of_path;
          QCheck_alcotest.to_alcotest qcheck_nonadjacent_no_link;
          Alcotest.test_case "closed-form shape matches make" `Quick test_shape_closed_form;
        ] );
    ]
