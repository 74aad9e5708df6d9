(** Algorithm MWM-Contract (paper §4.3): symmetric contraction of an
    arbitrary weighted task graph.

    Minimizes total interprocessor communication subject to the load
    balancing constraint of at most [b] tasks per cluster, producing at
    most [procs] clusters:

    - when the task count is ≤ 2·[procs], a single maximum-weight
      matching pass pairs tasks optimally;
    - otherwise a greedy pass (edges in non-increasing weight order)
      merges clusters up to [b/2] tasks until at most 2·[procs] remain,
      then maximum-weight matching pairs the clusters optimally. *)

type t = {
  cluster_of : int array;  (** task → dense cluster id *)
  clusters : int list array;  (** members per cluster *)
  ipc : int;  (** total weight crossing between clusters *)
  greedy_merges : int;  (** merges performed by the greedy phase *)
  matched_pairs : int;  (** pairs made by the matching phase *)
}

val contract :
  ?b:int ->
  ?budget:Budget.t ->
  Oregami_graph.Ugraph.t ->
  procs:int ->
  (t, string) result
(** [contract g ~procs] with [b] defaulting to the smallest even bound
    that can fit ([2·⌈⌈n/procs⌉/2⌉]).  Fails when [b·procs < n].
    Clusters are numbered by smallest task id.  Deterministic.

    When [budget] (default unlimited) trips mid-contraction, the
    remaining clusters are first-fit packed into [procs] capacity-[b]
    bins instead of matched — a valid but lower-quality partition,
    recorded as a ["mwm-contract"] truncation on the budget.

    {b Cost.}  The greedy phase sorts the [E] edges once and then
    costs O(E α(V)).  Each matching pass of the pairing phase over [k]
    clusters gathers one weight row per cluster — its weight to every
    cluster its members touch — in O(V + E), and matches the
    capacity-fitting pairs of positive weight.  Once a pass the budget
    paid for in full pairs nothing, no fitting pair can weigh more than
    0 again, so the zero-weight merges that follow do no weight work:
    each takes the first fitting pair of maximal weight in O(k) plus
    the rows it reads.

    {b Fuel.}  The greedy phase charges 1 per edge, in weight order;
    each reduction step charges [k]; and every scan of the pairing
    phase (a matching pass, a zero-weight merge) charges [s_a + s_c]
    for each capacity-fitting pair of clusters [a < c], in scan order,
    where [s] is a cluster's size.  A scan the fuel cap can afford is
    charged in one poll, summed from a histogram of cluster sizes;
    only the scan where the cap trips polls pair by pair, and it uses
    the pairs paid for before the trip.  A scan with no fitting pair
    polls nothing.  So fuel, truncations and the contraction itself
    are the same as when every pair was polled and weighed one by one,
    for every graph and every fuel cap. *)
