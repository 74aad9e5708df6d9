(** Fixed-capacity bitsets over [0 .. n-1], backed by [int] words.

    Used for visited sets in graph traversals, occupancy grids in the
    embedding algorithms, and element sets in the group computations. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0 .. n-1]. *)

val capacity : t -> int

val mem : t -> int -> bool

val add : t -> int -> unit

val remove : t -> int -> unit

val cardinal : t -> int

val is_empty : t -> bool

val copy : t -> t

val full : int -> t
(** [full n] contains every element of [0 .. n-1]. *)

val iter : (int -> unit) -> t -> unit
(** Iterates members in increasing order. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val elements : t -> int list

val union_into : t -> t -> unit
(** [union_into dst src] adds every member of [src] to [dst].  The two
    sets must have the same capacity. *)

val inter_into : t -> t -> unit
(** [inter_into dst src] removes from [dst] everything not in [src]. *)

val equal : t -> t -> bool

val choose : t -> int option
(** Smallest member, if any. *)
