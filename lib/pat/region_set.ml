type t = Region.t array
(* Invariant: strictly increasing under Region.compare (start ascending,
   stop descending), hence duplicate-free. *)

let tick_op () = Stdx.Stats.(incr index_ops)
let tick_cmp n = Stdx.Stats.(add_to region_comparisons n)

let produced (r : t) =
  Stdx.Stats.(add_to regions_produced (Array.length r));
  r

let empty = [||]
let is_empty t = Array.length t = 0
let cardinal = Array.length
let of_list rs = Stdx.Sorted_array.of_list ~cmp:Region.compare rs

let of_pairs ps =
  of_list (List.map (fun (start, stop) -> Region.make ~start ~stop) ps)

let to_list = Array.to_list
let to_array t = t
let mem t r = Stdx.Sorted_array.mem ~cmp:Region.compare t r
let equal a b = Stdx.Sorted_array.equal ~cmp:Region.compare a b
let subset a b = Stdx.Sorted_array.subset ~cmp:Region.compare a b
let iter = Array.iter
let fold f init t = Array.fold_left f init t
let filter p t = Stdx.Sorted_array.filter p t
let choose t = if Array.length t = 0 then None else Some t.(0)

let union a b =
  tick_op ();
  tick_cmp (Array.length a + Array.length b);
  produced (Stdx.Sorted_array.union ~cmp:Region.compare a b)

let inter a b =
  tick_op ();
  tick_cmp (Array.length a + Array.length b);
  produced (Stdx.Sorted_array.inter ~cmp:Region.compare a b)

let diff a b =
  tick_op ();
  tick_cmp (Array.length a + Array.length b);
  produced (Stdx.Sorted_array.diff ~cmp:Region.compare a b)

(* Every operator counts its comparisons in a local cell and publishes
   the total with one [add_to]: the registry counter is shared by all
   domains, so ticking it per step would be an atomic add in the inner
   loop. *)
let publish cmps out =
  tick_cmp !cmps;
  produced out

(* A single-pass filter that charges one comparison per element. *)
let select t keep =
  tick_op ();
  tick_cmp (Array.length t);
  produced (filter keep t)

(* Binary searches on the [start] component only.  Regions sharing a
   start are contiguous, so these delimit start windows. *)
let first_start_geq ~cmps (t : t) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      incr cmps;
      if t.(mid).Region.start < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t)

let last_start_leq ~cmps (t : t) x =
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      incr cmps;
      if t.(mid).Region.start <= x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length t) - 1

(* [inside ~strict ~cmps s] decides, for regions presented in increasing
   order, whether some region of [s] lies inside the given one (other
   than the region itself when [strict]).  Such a witness starts within
   the region's extent; the first candidate index only moves forward as
   the starts grow, so one pointer replaces a search per probe, and the
   window scan stops at the first witness.  On laminar sets the first
   candidate past a shared start already decides. *)
let inside ~strict ~cmps (s : t) =
  let n = Array.length s in
  let first = ref 0 in
  fun (reg : Region.t) ->
    while !first < n && s.(!first).Region.start < reg.start do
      incr cmps;
      incr first
    done;
    let rec scan i =
      if i >= n then false
      else begin
        let cand = s.(i) in
        incr cmps;
        if cand.Region.start > reg.stop then false
        else
          (cand.Region.stop <= reg.stop
          && not (strict && Region.equal cand reg))
          || scan (i + 1)
      end
    in
    scan !first

(* [r ⊃ s]: one forward pass over both operands. *)
let including_pass ~strict r s =
  tick_op ();
  if is_empty r || is_empty s then empty
  else begin
    let cmps = ref 0 in
    publish cmps (filter (inside ~strict ~cmps s) r)
  end

(* [r ⊂ s]: a witness starts at or before [reg.start], so it has been
   passed by the time [reg] is reached; a running maximum stop over the
   passed regions decides.  [m_lt] covers witnesses starting strictly
   before [reg], [m_eq] those sharing its start: the strict form needs
   the split because a same-start witness with the same stop is [reg]
   itself. *)
let included_pass ~strict r s =
  tick_op ();
  if is_empty r || is_empty s then empty
  else begin
    let cmps = ref 0 in
    let n = Array.length s in
    let next = ref 0 in
    let cur_start = ref min_int and m_lt = ref min_int and m_eq = ref min_int in
    let keep (reg : Region.t) =
      if reg.start > !cur_start then begin
        m_lt := max !m_lt !m_eq;
        m_eq := min_int;
        cur_start := reg.start
      end;
      while !next < n && s.(!next).Region.start <= reg.start do
        let w = s.(!next) in
        incr cmps;
        if w.Region.start < reg.start then m_lt := max !m_lt w.Region.stop
        else m_eq := max !m_eq w.Region.stop;
        incr next
      done;
      incr cmps;
      !m_lt >= reg.stop || if strict then !m_eq > reg.stop else !m_eq >= reg.stop
    in
    publish cmps (filter keep r)
  end

let including r s = including_pass ~strict:false r s
let included r s = included_pass ~strict:false r s
let including_strict r s = including_pass ~strict:true r s
let included_strict r s = included_pass ~strict:true r s

(* Is there a context region strictly between [outer] and [inner]?  The
   candidate window is the context regions whose start lies in
   [outer.start, inner.start]; each is tested for membership in the stop
   band.  Extents equal to either operand do not count as "between". *)
let strictly_between (u : Region.t) ~(outer : Region.t) ~(inner : Region.t) =
  u.stop >= inner.stop
  && u.stop <= outer.stop
  && (not (Region.equal u outer))
  && not (Region.equal u inner)

let blocked ~cmps ~(context : t) (outer : Region.t) (inner : Region.t) =
  let lo = first_start_geq ~cmps context outer.start in
  let hi = last_start_leq ~cmps context inner.start in
  let rec go i =
    i <= hi
    && begin
         incr cmps;
         strictly_between context.(i) ~outer ~inner || go (i + 1)
       end
  in
  go lo

let count_between ~cmps ~(context : t) ~(outer : Region.t) ~(inner : Region.t)
    =
  let lo = first_start_geq ~cmps context outer.start in
  let hi = last_start_leq ~cmps context inner.start in
  let count = ref 0 in
  for i = lo to hi do
    incr cmps;
    if strictly_between context.(i) ~outer ~inner then incr count
  done;
  !count

let count_strictly_between ~context ~outer ~inner =
  let cmps = ref 0 in
  let n = count_between ~cmps ~context ~outer ~inner in
  tick_cmp !cmps;
  n

(* Enumerate the regions of [s] included in [reg], in order, applying
   [f] until it returns true; returns whether some application did. *)
let exists_included_in ~cmps (s : t) (reg : Region.t) f =
  let lo = first_start_geq ~cmps s reg.start in
  let n = Array.length s in
  let rec go i =
    if i >= n then false
    else begin
      let cand = s.(i) in
      incr cmps;
      if cand.Region.start > reg.stop then false
      else if cand.Region.stop <= reg.stop && f cand then true
      else go (i + 1)
    end
  in
  go lo

(* Enumerate regions of [s] that include [reg]: their start is <=
   reg.start and stop >= reg.stop. *)
let exists_including ~cmps (s : t) (reg : Region.t) f =
  let hi = last_start_leq ~cmps s reg.start in
  let rec go i =
    if i < 0 then false
    else begin
      let cand = s.(i) in
      incr cmps;
      if cand.Region.stop >= reg.stop && f cand then true else go (i - 1)
    end
  in
  go hi

let directly_including ~context r s =
  tick_op ();
  let cmps = ref 0 in
  let keep reg =
    exists_included_in ~cmps s reg (fun inner ->
        not (blocked ~cmps ~context reg inner))
  in
  publish cmps (filter keep r)

let directly_including_strict ~context r s =
  tick_op ();
  let cmps = ref 0 in
  let keep reg =
    exists_included_in ~cmps s reg (fun inner ->
        (not (Region.equal reg inner)) && not (blocked ~cmps ~context reg inner))
  in
  publish cmps (filter keep r)

let directly_included ~context r s =
  tick_op ();
  let cmps = ref 0 in
  let keep reg =
    exists_including ~cmps s reg (fun outer ->
        not (blocked ~cmps ~context outer reg))
  in
  publish cmps (filter keep r)

let directly_included_strict ~context r s =
  tick_op ();
  let cmps = ref 0 in
  let keep reg =
    exists_including ~cmps s reg (fun outer ->
        (not (Region.equal reg outer)) && not (blocked ~cmps ~context outer reg))
  in
  publish cmps (filter keep r)

let including_at_depth ~context ~depth r s =
  tick_op ();
  let cmps = ref 0 in
  let keep reg =
    exists_included_in ~cmps s reg (fun inner ->
        count_between ~cmps ~context ~outer:reg ~inner = depth)
  in
  publish cmps (filter keep r)

(* ι: an element is innermost iff no other element lies inside it. *)
let innermost t =
  tick_op ();
  let cmps = ref 0 in
  let has_inner = inside ~strict:true ~cmps t in
  publish cmps (filter (fun reg -> not (has_inner reg)) t)

(* ω: every element including [reg] precedes it in the order (smaller
   start, or the same start and a larger stop), so [reg] is outermost
   iff the running maximum stop of its predecessors falls short of its
   own stop. *)
let outermost t =
  let max_stop = ref min_int in
  select t (fun (reg : Region.t) ->
      reg.stop > !max_stop
      && begin
           max_stop := reg.stop;
           true
         end)

let containing_match t ~positions ~len =
  select t (fun (reg : Region.t) ->
      let i = Stdx.Sorted_array.lower_bound ~cmp:Int.compare positions reg.start in
      i < Array.length positions && positions.(i) + len <= reg.stop)

let matching_prefix t ~positions ~len =
  select t (fun (reg : Region.t) ->
      Region.length reg >= len
      && Stdx.Sorted_array.mem ~cmp:Int.compare positions reg.start)

let occurrences_within _t ~positions ~len (reg : Region.t) =
  let cmp = Int.compare in
  let lo = Stdx.Sorted_array.lower_bound ~cmp positions reg.start in
  let hi = Stdx.Sorted_array.upper_bound ~cmp positions (reg.stop - len) in
  max 0 (hi - lo)

let containing_at_least t ~positions ~len ~count =
  select t (fun reg -> occurrences_within t ~positions ~len reg >= count)

let matching_exact t ~positions ~len =
  select t (fun (reg : Region.t) ->
      Region.length reg = len
      && Stdx.Sorted_array.mem ~cmp:Int.compare positions reg.start)

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ";@ ")
       Region.pp)
    (to_list t)
