module Bitset = Oregami_prelude.Bitset

let bfs_order g start =
  let n = Ugraph.node_count g in
  let seen = Bitset.create n in
  let q = Queue.create () in
  Bitset.add seen start;
  Queue.add start q;
  let acc = ref [] in
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    acc := u :: !acc;
    List.iter
      (fun (v, _) ->
        if not (Bitset.mem seen v) then begin
          Bitset.add seen v;
          Queue.add v q
        end)
      (Ugraph.neighbors g u)
  done;
  List.rev !acc

let bfs_dist g start =
  let dist = Array.make (Ugraph.node_count g) max_int in
  dist.(start) <- 0;
  let q = Queue.create () in
  Queue.add start q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, _) ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (Ugraph.neighbors g u)
  done;
  dist

let components g =
  let n = Ugraph.node_count g in
  let seen = Bitset.create n in
  let comps = ref [] in
  for start = 0 to n - 1 do
    if not (Bitset.mem seen start) then begin
      let comp = bfs_order g start in
      List.iter (Bitset.add seen) comp;
      comps := List.sort compare comp :: !comps
    end
  done;
  List.rev !comps

let is_connected g = Ugraph.node_count g <= 1 || List.length (components g) = 1

let topological_sort g =
  let n = Digraph.node_count g in
  let indeg = Array.init n (Digraph.in_degree g) in
  let pq = Oregami_prelude.Pqueue.create () in
  for u = 0 to n - 1 do
    if indeg.(u) = 0 then Oregami_prelude.Pqueue.push pq u u
  done;
  let rec go acc count =
    match Oregami_prelude.Pqueue.pop pq with
    | None -> if count = n then Some (List.rev acc) else None
    | Some (_, u) ->
      List.iter
        (fun (v, _) ->
          indeg.(v) <- indeg.(v) - 1;
          if indeg.(v) = 0 then Oregami_prelude.Pqueue.push pq v v)
        (Digraph.succ g u);
      go (u :: acc) (count + 1)
  in
  go [] 0

let is_dag g = Option.is_some (topological_sort g)

let eccentricity g u =
  let dist = bfs_dist g u in
  Array.fold_left
    (fun acc d -> if d = max_int then max_int else max acc d)
    0 dist

let diameter g =
  let n = Ugraph.node_count g in
  if n <= 1 then 0
  else begin
    let best = ref 0 in
    (try
       for u = 0 to n - 1 do
         let e = eccentricity g u in
         if e = max_int then begin
           best := max_int;
           raise Exit
         end;
         best := max !best e
       done
     with Exit -> ());
    !best
  end
