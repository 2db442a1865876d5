(** Set operations on sorted arrays.

    The PAT engine ({!module:Pat}) represents match-point sets and region
    sets as strictly increasing arrays; all algebra operators reduce to
    linear merges on such arrays.  This module provides the generic
    kernel, parameterised by a comparison function.

    All functions expect inputs sorted strictly increasing under [cmp]
    (no duplicates) and return outputs with the same property. *)

val is_sorted : cmp:('a -> 'a -> int) -> 'a array -> bool
(** [is_sorted ~cmp a] checks strict ascending order. *)

val of_list : cmp:('a -> 'a -> int) -> 'a list -> 'a array
(** Sort and deduplicate a list into a sorted array. *)

val union : cmp:('a -> 'a -> int) -> 'a array -> 'a array -> 'a array
(** Set union by linear merge. *)

val inter : cmp:('a -> 'a -> int) -> 'a array -> 'a array -> 'a array
(** Set intersection by linear merge. *)

val diff : cmp:('a -> 'a -> int) -> 'a array -> 'a array -> 'a array
(** Set difference [a - b] by linear merge. *)

val mem : cmp:('a -> 'a -> int) -> 'a array -> 'a -> bool
(** Binary-search membership. *)

val subset : cmp:('a -> 'a -> int) -> 'a array -> 'a array -> bool
(** [subset ~cmp a b] is true when every element of [a] occurs in [b]. *)

val equal : cmp:('a -> 'a -> int) -> 'a array -> 'a array -> bool
(** Set equality (element-wise, given sortedness). *)

val lower_bound : cmp:('a -> 'a -> int) -> 'a array -> 'a -> int
(** [lower_bound ~cmp a x] is the least index [i] with [cmp a.(i) x >= 0],
    or [Array.length a] if all elements are smaller. *)

val upper_bound : cmp:('a -> 'a -> int) -> 'a array -> 'a -> int
(** [upper_bound ~cmp a x] is the least index [i] with [cmp a.(i) x > 0],
    or [Array.length a] if no element is greater. *)

val filter : ('a -> bool) -> 'a array -> 'a array
(** Order-preserving filter (sortedness is preserved).  [p] is applied
    once to each element, left to right, so it may carry state. *)
