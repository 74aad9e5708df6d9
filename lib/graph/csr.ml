type t = {
  n : int;
  offsets : int array; (* length n + 1; arcs of u at offsets.(u) .. offsets.(u+1)-1 *)
  targets : int array;
}

let unreachable = max_int

let of_ugraph g =
  let n = Ugraph.node_count g in
  let offsets = Array.make (n + 1) 0 in
  for u = 0 to n - 1 do
    offsets.(u + 1) <- offsets.(u) + Ugraph.degree g u
  done;
  let m = offsets.(n) in
  let targets = Array.make m 0 in
  for u = 0 to n - 1 do
    let i = ref offsets.(u) in
    List.iter
      (fun (v, _) ->
        targets.(!i) <- v;
        incr i)
      (Ugraph.neighbors g u)
  done;
  { n; offsets; targets }

(* One BFS row: distances from [src] written into
   [dist.(base) .. dist.(base + n - 1)], with [queue] as scratch (length
   >= n).  Unreached slots are left at [unreachable]. *)
let bfs_into t src dist base queue =
  Array.fill dist base t.n unreachable;
  dist.(base + src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let u = queue.(!head) in
    incr head;
    let du = dist.(base + u) + 1 in
    for i = t.offsets.(u) to t.offsets.(u + 1) - 1 do
      let v = t.targets.(i) in
      if dist.(base + v) = unreachable then begin
        dist.(base + v) <- du;
        queue.(!tail) <- v;
        incr tail
      end
    done
  done

let bfs_dist t src =
  if src < 0 || src >= t.n then invalid_arg "Csr.bfs_dist: source out of range";
  let dist = Array.make t.n unreachable in
  bfs_into t src dist 0 (Array.make (max 1 t.n) 0);
  dist

let rows_into t ~lo ~hi hops =
  let queue = Array.make (max 1 t.n) 0 in
  for src = lo to hi - 1 do
    bfs_into t src hops (src * t.n) queue
  done

let all_pairs_hops ?(parallel = false) t =
  let n = t.n in
  let hops = Array.make (max 1 (n * n)) unreachable in
  let domains =
    if not parallel then 1 else min (Domain.recommended_domain_count ()) 8
  in
  if domains <= 1 || n < 2 * domains then rows_into t ~lo:0 ~hi:n hops
  else begin
    (* Each domain owns a contiguous block of sources; rows are disjoint
       slices of [hops], so the writes never race. *)
    let chunk = (n + domains - 1) / domains in
    let workers =
      List.init (domains - 1) (fun i ->
          let lo = (i + 1) * chunk in
          let hi = min n (lo + chunk) in
          Domain.spawn (fun () -> rows_into t ~lo ~hi hops))
    in
    rows_into t ~lo:0 ~hi:(min n chunk) hops;
    List.iter Domain.join workers
  end;
  hops
