module Ugraph = Oregami_graph.Ugraph
module Union_find = Oregami_prelude.Union_find
module Blossom = Oregami_matching.Blossom

type t = {
  cluster_of : int array;
  clusters : int list array;
  ipc : int;
  greedy_merges : int;
  matched_pairs : int;
}

let default_b n procs =
  let per_proc = (n + procs - 1) / procs in
  2 * ((per_proc + 1) / 2)

(* Dense renumbering of union-find clusters by smallest member. *)
let dense_clusters uf n =
  let id = Array.make n (-1) in
  let next = ref 0 in
  let cluster_of =
    Array.init n (fun v ->
        let r = Union_find.find uf v in
        if id.(r) < 0 then begin
          id.(r) <- !next;
          incr next
        end;
        id.(r))
  in
  let clusters = Array.make !next [] in
  for v = n - 1 downto 0 do
    clusters.(cluster_of.(v)) <- v :: clusters.(cluster_of.(v))
  done;
  (cluster_of, clusters)

(* the graph's adjacency as offsets, neighbours and weights *)
let adjacency g n =
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + Ugraph.degree g v
  done;
  let nbr = Array.make off.(n) 0 and wt = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    List.iteri
      (fun i (u, w) ->
        nbr.(off.(v) + i) <- u;
        wt.(off.(v) + i) <- w)
      (Ugraph.neighbors g v)
  done;
  (off, nbr, wt)

let contract ?b ?budget g ~procs =
  let budget = match budget with Some b -> b | None -> Budget.unlimited () in
  (* charge [cost] work units; on exhaustion mark this site truncated *)
  let check cost =
    Budget.poll budget ~cost
    || begin
         Budget.note budget "mwm-contract";
         false
       end
  in
  let n = Ugraph.node_count g in
  if procs <= 0 then Error "need at least one processor"
  else begin
    let b = match b with Some b -> b | None -> default_b n procs in
    if b < 1 then Error "cluster capacity must be at least 1"
    else if b * procs < n then
      Error
        (Printf.sprintf "infeasible: %d tasks > %d processors x capacity %d" n procs b)
    else begin
      let off, nbr, wt = adjacency g n in
      let uf = Union_find.create n in
      let half = max 1 (b / 2) in
      let greedy_merges = ref 0 in
      (* greedy phase: heaviest edges first, clusters capped at b/2,
         stop once at most 2*procs clusters remain (paper Fig 5) *)
      if n > 2 * procs then begin
        let m = off.(n) / 2 in
        let eu = Array.make m 0 and ev = Array.make m 0 and ew = Array.make m 0 in
        let e = ref 0 in
        for u = 0 to n - 1 do
          for i = off.(u) to off.(u + 1) - 1 do
            if nbr.(i) > u then begin
              eu.(!e) <- u;
              ev.(!e) <- nbr.(i);
              ew.(!e) <- wt.(i);
              incr e
            end
          done
        done;
        (* by weight, heaviest first, ties by (u, v) *)
        let by_weight = Array.init m Fun.id in
        Array.sort
          (fun i j ->
            let c = Int.compare ew.(j) ew.(i) in
            if c <> 0 then c
            else
              let c = Int.compare eu.(i) eu.(j) in
              if c <> 0 then c else Int.compare ev.(i) ev.(j))
          by_weight;
        Array.iter
          (fun e ->
            let u = eu.(e) and v = ev.(e) in
            if
              check 1
              && Union_find.count_sets uf > 2 * procs
              && (not (Union_find.same uf u v))
              && Union_find.size uf u + Union_find.size uf v <= half
            then begin
              ignore (Union_find.union uf u v);
              incr greedy_merges
            end)
          by_weight
      end;
      (* pairing phase over explicit clusters: repeat maximum-weight
         matchings restricted to capacity-respecting pairs; when no
         pair fits, fall back to a zero-cost merge, and as a last
         resort dissolve the smallest cluster into the others' spare
         capacity.  The canonical case (greedy reached <= 2P clusters
         of <= B/2 tasks) finishes in the single matching round the
         paper describes.

         Clusters carry a label (their index after the greedy phase)
         and sit at a position in the scan order; pairs are scanned as
         (a, c), a < c, by position.  A label keeps its members,
         sorted, and its size; [lab] maps a task to its cluster's
         label and [pos] a label to its position. *)
      let matched_pairs = ref 0 in
      let lab, mem = dense_clusters uf n in
      let k0 = Array.length mem in
      let size = Array.map List.length mem in
      let order = Array.init k0 Fun.id in
      let pos = Array.init k0 Fun.id in
      let k = ref k0 in
      let sz a = size.(order.(a)) in
      (* the new scan order: the labels [first], then the clusters at
         the positions that [keep] holds, in order *)
      let reorder first keep =
        let kept =
          List.filter_map
            (fun a -> if keep a then Some order.(a) else None)
            (List.init !k Fun.id)
        in
        let labels = first @ kept in
        List.iteri
          (fun a l ->
            order.(a) <- l;
            pos.(l) <- a)
          labels;
        k := List.length labels
      in
      let current () = List.init !k (fun a -> mem.(order.(a))) in
      (* [lc]'s members join [la] *)
      let join la lc =
        List.iter (fun v -> lab.(v) <- la) mem.(lc);
        mem.(la) <- List.merge Int.compare mem.(la) mem.(lc);
        size.(la) <- size.(la) + size.(lc);
        mem.(lc) <- []
      in
      (* one weight row: [gather a] sums, per later position c, the
         weight between the clusters at a and c into [acc] under a
         fresh stamp, in O(the degree of a's members), and returns the
         positions it touched; [weight c] reads the row *)
      let acc = Array.make k0 0 and seen = Array.make k0 0 and stamp = ref 0 in
      let add c w =
        if seen.(c) <> !stamp then begin
          seen.(c) <- !stamp;
          acc.(c) <- w;
          true
        end
        else begin
          acc.(c) <- acc.(c) + w;
          false
        end
      in
      let weight c = if seen.(c) = !stamp then acc.(c) else 0 in
      let gather a =
        incr stamp;
        let touched = ref [] in
        List.iter
          (fun v ->
            for i = off.(v) to off.(v + 1) - 1 do
              let c = pos.(lab.(nbr.(i))) in
              if c > a && add c wt.(i) then touched := c :: !touched
            done)
          mem.(order.(a));
        !touched
      in
      (* The fuel of one scan is the sum of s_a + s_c over its fitting
         pairs (s_a + s_c <= b), counted from a histogram of sizes:
         a cluster of size s fits beside every other cluster of size
         <= b - s. *)
      let hist = Array.make (b + 1) 0 and at_most = Array.make (b + 1) 0 in
      let scan_cost () =
        Array.fill hist 0 (b + 1) 0;
        for a = 0 to !k - 1 do
          hist.(sz a) <- hist.(sz a) + 1
        done;
        for s = 1 to b do
          at_most.(s) <- at_most.(s - 1) + hist.(s)
        done;
        let cost = ref 0 and ends = ref 0 in
        for s = 1 to b - 1 do
          if hist.(s) > 0 then begin
            let partners = at_most.(b - s) - if 2 * s <= b then 1 else 0 in
            cost := !cost + (hist.(s) * s * partners);
            ends := !ends + (hist.(s) * partners)
          end
        done;
        (!cost, !ends / 2)
      in
      (* Charge one scan over the fitting pairs and return the rank
         a * k + c of the first pair the budget refused, [max_int] when
         it paid for all.  A scan with no fitting pair polls nothing; a
         scan the fuel cap can afford is charged in one poll (if the
         deadline trips there, the scan's work still stands); only the
         scan where the cap trips polls pair by pair. *)
      let charge_scan () =
        let cost, pairs = scan_cost () in
        if pairs = 0 then max_int
        else if (not (Budget.exhausted budget)) && cost <= Budget.fuel_left budget then begin
          ignore (check cost);
          max_int
        end
        else begin
          let k = !k in
          let exception Refused of int in
          try
            for a = 0 to k - 1 do
              for c = a + 1 to k - 1 do
                if sz a + sz c <= b && not (check (sz a + sz c)) then
                  raise (Refused ((a * k) + c))
              done
            done;
            max_int
          with Refused rank -> rank
        end
      in
      (* Once a pass paid for in full pairs nothing, no fitting pair
         weighs more than 0, and none ever will: if a ∪ c fits beside
         d, so did a and c, each at weight <= 0; and a dissolve runs
         only when no pair fits, and only grows clusters. *)
      let zero_tail = ref false in
      let exception Stuck in
      let merge_pass () =
        let stop = charge_scan () in
        if !zero_tail then false
        else begin
          let k = !k in
          let edges = ref [] in
          for a = 0 to k - 1 do
            List.iter
              (fun c ->
                let w = weight c in
                if w > 0 && sz a + sz c <= b && (a * k) + c < stop then
                  edges := (a, c, w) :: !edges)
              (List.sort Int.compare (gather a))
          done;
          if !edges = [] then begin
            if stop = max_int then zero_tail := true;
            false
          end
          else begin
            let mate = Blossom.max_weight_matching ~n:k !edges in
            (* merged pairs first, by their lower position, then the
               unmatched clusters in order *)
            let merged = ref [] in
            for c = k - 1 downto 0 do
              if mate.(c) > c then begin
                join order.(c) order.(mate.(c));
                merged := order.(c) :: !merged;
                incr matched_pairs
              end
            done;
            reorder !merged (fun c -> mate.(c) < 0);
            !merged <> []
          end
        end
      in
      (* the first fitting pair of maximal weight in scan order, merged
         to the front *)
      let zero_merge () =
        let stop = charge_scan () in
        let k = !k in
        (* smallest size at or after each position *)
        let least = Array.make (k + 1) max_int in
        for a = k - 1 downto 0 do
          least.(a) <- min (sz a) least.(a + 1)
        done;
        let best = ref None in
        (try
           for a = 0 to k - 2 do
             if least.(a + 1) <= b - sz a then begin
               ignore (gather a);
               for c = a + 1 to k - 1 do
                 if sz a + sz c <= b then begin
                   if (a * k) + c >= stop then raise Exit;
                   let w = weight c in
                   (match !best with
                   | Some (bw, _, _) when bw >= w -> ()
                   | Some _ | None -> best := Some (w, a, c));
                   if !zero_tail && w = 0 then raise Exit
                 end
               done
             end
           done
         with Exit -> ());
        match !best with
        | None -> false
        | Some (_, a, c) ->
          join order.(a) order.(c);
          reorder [ order.(a) ] (fun i -> i <> a && i <> c);
          true
      in
      let dissolve_smallest () =
        let k = !k in
        let smallest = ref 0 in
        for c = 1 to k - 1 do
          if sz c < sz !smallest then smallest := c
        done;
        let s = !smallest in
        let spare = ref 0 in
        for c = 0 to k - 1 do
          if c <> s then spare := !spare + (b - sz c)
        done;
        if !spare < sz s then false
        else begin
          List.iter
            (fun task ->
              (* heaviest-affinity cluster with room *)
              incr stamp;
              for i = off.(task) to off.(task + 1) - 1 do
                ignore (add pos.(lab.(nbr.(i))) wt.(i))
              done;
              let best = ref (-1) and best_w = ref 0 in
              for c = 0 to k - 1 do
                if c <> s && sz c < b && (!best < 0 || weight c > !best_w) then begin
                  best := c;
                  best_w := weight c
                end
              done;
              if !best >= 0 then begin
                let l = order.(!best) in
                lab.(task) <- l;
                mem.(l) <- List.merge Int.compare [ task ] mem.(l);
                size.(l) <- size.(l) + 1
              end)
            mem.(order.(s));
          reorder [] (fun c -> c <> s);
          true
        end
      in
      (* anytime path: when the budget dies mid-reduction, pack the
         current clusters into [procs] bins directly — first-fit
         decreasing, then dissolving whatever does not fit whole,
         task by task, into spare slots.  Always succeeds because the
         feasibility check above guarantees [b * procs >= n]. *)
      let force_pack cs =
        let sorted =
          List.sort (fun a c -> compare (List.length c) (List.length a)) cs
        in
        let bins = Array.make procs [] in
        let bin_size = Array.make procs 0 in
        let overflow = ref [] in
        List.iter
          (fun members ->
            let len = List.length members in
            let rec find i =
              if i >= procs then None
              else if bin_size.(i) + len <= b then Some i
              else find (i + 1)
            in
            match find 0 with
            | Some i ->
              bins.(i) <- members :: bins.(i);
              bin_size.(i) <- bin_size.(i) + len
            | None -> overflow := members :: !overflow)
          sorted;
        List.iter
          (fun task ->
            let rec find i =
              if i >= procs then raise Stuck
              else if bin_size.(i) < b then begin
                bins.(i) <- [ task ] :: bins.(i);
                bin_size.(i) <- bin_size.(i) + 1
              end
              else find (i + 1)
            in
            find 0)
          (List.concat !overflow);
        Array.to_list bins
        |> List.filter_map (fun pieces ->
               match List.concat pieces with
               | [] -> None
               | members -> Some (List.sort compare members))
      in
      let rec reduce () =
        if !k <= procs then current ()
        else if not (check !k) then force_pack (current ())
        else if merge_pass () || zero_merge () || dissolve_smallest () then reduce ()
        else raise Stuck
      in
      match reduce () with
      | exception Stuck ->
        Error (Printf.sprintf "could not reduce to %d clusters under capacity %d" procs b)
      | clusters ->
        (* renumber by smallest member *)
        let sorted = List.sort (fun a c -> compare (List.hd a) (List.hd c)) clusters in
        let clusters = Array.of_list sorted in
        let cluster_of = Array.make n (-1) in
        Array.iteri
          (fun c members -> List.iter (fun v -> cluster_of.(v) <- c) members)
          clusters;
        if Array.exists (fun m -> List.length m > b) clusters then
          Error "internal error: capacity violated"
        else if Array.exists (( = ) (-1)) cluster_of then
          Error "internal error: task lost during contraction"
        else
          Ok
            {
              cluster_of;
              clusters;
              ipc = Mapping.total_ipc g cluster_of;
              greedy_merges = !greedy_merges;
              matched_pairs = !matched_pairs;
            }
    end
  end
