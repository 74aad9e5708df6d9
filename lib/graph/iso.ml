let degree_multiset g =
  List.sort compare (List.init (Ugraph.node_count g) (Ugraph.degree g))

(* Generic backtracking node-map search.  [compatible u v] filters
   candidate images, [consistent mapping u v] checks edges against all
   previously mapped nodes. *)
let search n ~candidates ~consistent ~fixed =
  let mapping = Array.make n (-1) in
  let used = Array.make n false in
  let ok_fixed =
    match fixed with
    | None -> true
    | Some (u, v) ->
      mapping.(u) <- v;
      used.(v) <- true;
      true
  in
  if not ok_fixed then None
  else begin
    let order =
      (* map the fixed node first (already done), then the rest *)
      List.init n (fun i -> i) |> List.filter (fun u -> mapping.(u) = -1)
    in
    let rec go = function
      | [] -> true
      | u :: rest ->
        List.exists
          (fun v ->
            (not used.(v))
            && consistent mapping u v
            &&
            begin
              mapping.(u) <- v;
              used.(v) <- true;
              if go rest then true
              else begin
                mapping.(u) <- -1;
                used.(v) <- false;
                false
              end
            end)
          (candidates u)
    in
    if go order then Some mapping else None
  end

let isomorphism a b =
  let n = Ugraph.node_count a in
  if n <> Ugraph.node_count b || Ugraph.edge_count a <> Ugraph.edge_count b then None
  else if degree_multiset a <> degree_multiset b then None
  else begin
    let candidates u =
      let d = Ugraph.degree a u in
      List.init n (fun v -> v) |> List.filter (fun v -> Ugraph.degree b v = d)
    in
    let consistent mapping u v =
      let rec ok us =
        match us with
        | [] -> true
        | u' :: rest ->
          (mapping.(u') = -1
          || Ugraph.mem_edge a u u' = Ugraph.mem_edge b v mapping.(u'))
          && ok rest
      in
      ok (List.init n (fun i -> i))
    in
    search n ~candidates ~consistent ~fixed:None
  end

let isomorphic a b = Option.is_some (isomorphism a b)

(* all-pairs hop distances, each node's sorted distance profile, and the
   sorted multiset of those profiles *)
let distance_profiles g =
  let n = Ugraph.node_count g in
  let d = Array.init n (fun u -> Traverse.bfs_dist g u) in
  let profiles = Array.init n (fun x -> List.sort compare (Array.to_list d.(x))) in
  (d, profiles, List.sort compare (Array.to_list profiles))

(* staged on [a]: its profiles are computed on the first comparison that
   gets past the counts, then shared by every later [b] *)
let isomorphism_distance_pruned a =
  let n = Ugraph.node_count a in
  let profiled_a = lazy (distance_profiles a) in
  fun b ->
    if n <> Ugraph.node_count b || Ugraph.edge_count a <> Ugraph.edge_count b then None
    else begin
      let da, profiles_a, sorted_a = Lazy.force profiled_a in
      let db, profiles_b, sorted_b = distance_profiles b in
      (* global invariant: the multiset of distance profiles must agree *)
      if sorted_a <> sorted_b then None
      else begin
        let candidates u =
          List.init n (fun v -> v) |> List.filter (fun v -> profiles_b.(v) = profiles_a.(u))
        in
        let consistent mapping u v =
          let rec ok us =
            match us with
            | [] -> true
            | u' :: rest ->
              (mapping.(u') = -1 || da.(u).(u') = db.(v).(mapping.(u'))) && ok rest
          in
          ok (List.init n (fun i -> i))
        in
        search n ~candidates ~consistent ~fixed:None
      end
    end

let digraph_isomorphism a b =
  let n = Digraph.node_count a in
  if n <> Digraph.node_count b then None
  else begin
    let distinct_degrees g u =
      (List.length (List.sort_uniq compare (List.map fst (Digraph.succ g u))),
       List.length (List.sort_uniq compare (List.map fst (Digraph.pred g u))))
    in
    let candidates u =
      let d = distinct_degrees a u in
      List.init n (fun v -> v) |> List.filter (fun v -> distinct_degrees b v = d)
    in
    let consistent mapping u v =
      let rec ok us =
        match us with
        | [] -> true
        | u' :: rest ->
          (mapping.(u') = -1
          || Digraph.weight a u u' = Digraph.weight b v mapping.(u')
             && Digraph.weight a u' u = Digraph.weight b mapping.(u') v)
          && ok rest
      in
      ok (List.init n (fun i -> i))
    in
    search n ~candidates ~consistent ~fixed:None
  end

let is_automorphism g f =
  let n = Ugraph.node_count g in
  Array.length f = n
  && begin
       let seen = Array.make n false in
       Array.for_all
         (fun v ->
           v >= 0 && v < n
           &&
           if seen.(v) then false
           else begin
             seen.(v) <- true;
             true
           end)
         f
     end
  && List.for_all
       (fun (u, v, _) -> Ugraph.mem_edge g f.(u) f.(v))
       (Ugraph.edges g)

let automorphism_fixing g u v =
  let n = Ugraph.node_count g in
  if Ugraph.degree g u <> Ugraph.degree g v then None
  else begin
    let candidates x =
      let d = Ugraph.degree g x in
      List.init n (fun y -> y) |> List.filter (fun y -> Ugraph.degree g y = d)
    in
    let consistent mapping x y =
      let rec ok xs =
        match xs with
        | [] -> true
        | x' :: rest ->
          (mapping.(x') = -1 || Ugraph.mem_edge g x x' = Ugraph.mem_edge g y mapping.(x'))
          && ok rest
      in
      ok (List.init n (fun i -> i))
    in
    search n ~candidates ~consistent ~fixed:(Some (u, v))
  end

let is_node_symmetric g =
  let n = Ugraph.node_count g in
  n <= 1
  ||
  let rec go v = v >= n || (Option.is_some (automorphism_fixing g 0 v) && go (v + 1)) in
  go 1
