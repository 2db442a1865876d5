type selection = Contains_word of string | Exactly_word of string | Prefix_word of string

type op = Including | Directly_including | Included | Directly_included
type setop = Union | Inter | Diff

type t =
  | Name of string
  | Select of selection * t
  | Setop of setop * t * t
  | Chain of t * op * t
  | Chain_strict of t * op * t
  | Innermost of t
  | Outermost of t
  | At_depth of int * t * t

let equal = ( = )

let children = function
  | Name _ -> []
  | Select (_, e) | Innermost e | Outermost e -> [ e ]
  | Setop (_, a, b) | Chain (a, _, b) | Chain_strict (a, _, b)
  | At_depth (_, a, b) ->
      [ a; b ]

let rec collect_names acc = function
  | Name n -> n :: acc
  | Select (_, e) | Innermost e | Outermost e -> collect_names acc e
  | Setop (_, a, b) | Chain (a, _, b) | Chain_strict (a, _, b)
  | At_depth (_, a, b) ->
      collect_names (collect_names acc a) b

let names e = List.sort_uniq String.compare (collect_names [] e)

let rec size = function
  | Name _ -> 1
  | Select (_, e) | Innermost e | Outermost e -> 1 + size e
  | Setop (_, a, b) | Chain (a, _, b) | Chain_strict (a, _, b)
  | At_depth (_, a, b) ->
      1 + size a + size b

let rec count_ops e op =
  match e with
  | Name _ -> 0
  | Select (_, e) | Innermost e | Outermost e -> count_ops e op
  | Setop (_, a, b) | At_depth (_, a, b) -> count_ops a op + count_ops b op
  | Chain (a, o, b) | Chain_strict (a, o, b) ->
      (if o = op then 1 else 0) + count_ops a op + count_ops b op

let is_direct = function
  | Directly_including | Directly_included -> true
  | Including | Included -> false

let weaken = function
  | Directly_including -> Including
  | Directly_included -> Included
  | (Including | Included) as o -> o

let pp_selection ppf = function
  | Contains_word w -> Format.fprintf ppf "word[%S]" w
  | Exactly_word w -> Format.fprintf ppf "sigma[%S]" w
  | Prefix_word w -> Format.fprintf ppf "prefix[%S]" w

let pp_op ppf op =
  Format.pp_print_string ppf
    (match op with
    | Including -> ">"
    | Directly_including -> ">d"
    | Included -> "<"
    | Directly_included -> "<d")

(* Precedence levels, loosest first: set operators, then chains, then
   prefix forms.  Chains are right-associative. *)
let rec pp_prec prec ppf e =
  let paren p body =
    if prec > p then Format.fprintf ppf "(%t)" body else body ppf
  in
  match e with
  | Name n -> Format.pp_print_string ppf n
  | Select (sel, e) ->
      Format.fprintf ppf "%a(%a)" pp_selection sel (pp_prec 0) e
  | Innermost e -> Format.fprintf ppf "inner(%a)" (pp_prec 0) e
  | Outermost e -> Format.fprintf ppf "outer(%a)" (pp_prec 0) e
  | At_depth (n, a, b) ->
      Format.fprintf ppf "depth[%d](%a, %a)" n (pp_prec 0) a (pp_prec 0) b
  | Setop (op, a, b) ->
      let sym = match op with Union -> "|" | Inter -> "&" | Diff -> "-" in
      paren 0 (fun ppf ->
          Format.fprintf ppf "%a %s %a" (pp_prec 1) a sym (pp_prec 1) b)
  | Chain (a, op, b) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a %a %a" (pp_prec 2) a pp_op op (pp_prec 1) b)
  | Chain_strict (a, op, b) ->
      paren 1 (fun ppf ->
          Format.fprintf ppf "%a %a! %a" (pp_prec 2) a pp_op op (pp_prec 1) b)

let pp = pp_prec 0
let to_string e = Format.asprintf "%a" pp e

let node_label = function
  | Name n -> n
  | Select (sel, _) -> Format.asprintf "%a" pp_selection sel
  | Setop (Union, _, _) -> "|"
  | Setop (Inter, _, _) -> "&"
  | Setop (Diff, _, _) -> "-"
  | Chain (_, op, _) -> Format.asprintf "%a" pp_op op
  | Chain_strict (_, op, _) -> Format.asprintf "%a!" pp_op op
  | Innermost _ -> "inner"
  | Outermost _ -> "outer"
  | At_depth (n, _, _) -> Printf.sprintf "depth[%d]" n

let name n = Name n
let exactly w e = Select (Exactly_word w, e)
let contains w e = Select (Contains_word w, e)
let ( >. ) a b = Chain (a, Including, b)
let ( >.. ) a b = Chain (a, Directly_including, b)
let ( <. ) a b = Chain (a, Included, b)
let ( <.. ) a b = Chain (a, Directly_included, b)
