type label = V | H | VH
type root = Node of int | Const_false

type bdd_graph = {
  graph : Graphs.Ugraph.t;
  inputs : string array;
  edges : int array;
  terminal : int;
  roots : (string * root) list;
  node_names : string array;
}

type labeling = {
  labels : label array;
  vh_count : int;
  rows : int;
  cols : int;
  objective : float;
  gamma : float;
  optimal : bool;
  lower_bound : float;
  solve_time : float;
  method_name : string;
  trace : Milp.Branch_bound.trace_point list;
}

let semiperimeter l = l.rows + l.cols
let max_dimension l = max l.rows l.cols

let objective_of ~gamma ~rows ~cols =
  (gamma *. float_of_int (rows + cols))
  +. ((1. -. gamma) *. float_of_int (max rows cols))

let has_h = function H | VH -> true | V -> false
let has_v = function V | VH -> true | H -> false

let check_labeling ?(alignment = false) bg labels =
  let n = Graphs.Ugraph.num_nodes bg.graph in
  if Array.length labels <> n then Error "label array arity mismatch"
  else begin
    let error = ref None in
    Graphs.Ugraph.iter_edges
      (fun u v ->
         if !error = None then
           if labels.(u) = V && labels.(v) = V then
             error :=
               Some (Printf.sprintf "edge (%d, %d) joins two bitlines" u v)
           else if labels.(u) = H && labels.(v) = H then
             error :=
               Some (Printf.sprintf "edge (%d, %d) joins two wordlines" u v))
      bg.graph;
    (if alignment && !error = None then
       let check_aligned what node =
         if !error = None && not (has_h labels.(node)) then
           error :=
             Some
               (Printf.sprintf "%s (node %d) is not on a wordline" what node)
       in
       check_aligned "terminal" bg.terminal;
       List.iter
         (fun (o, root) ->
            match root with
            | Node node -> check_aligned ("output " ^ o) node
            | Const_false -> ())
         bg.roots);
    match !error with None -> Stdlib.Ok () | Some e -> Stdlib.Error e
  end

let counts labels =
  let vh = ref 0 and rows = ref 0 and cols = ref 0 in
  Array.iter
    (fun l ->
       if l = VH then incr vh;
       if has_h l then incr rows;
       if has_v l then incr cols)
    labels;
  !vh, !rows, !cols

let make_labeling bg ~gamma ~optimal ~lower_bound ~solve_time ~method_name
    ?(trace = []) labels =
  (match check_labeling bg labels with
   | Stdlib.Ok () -> ()
   | Stdlib.Error e -> invalid_arg ("Compact.Types.make_labeling: " ^ e));
  let vh_count, rows, cols = counts labels in
  {
    labels;
    vh_count;
    rows;
    cols;
    objective = objective_of ~gamma ~rows ~cols;
    gamma;
    optimal;
    lower_bound;
    solve_time;
    method_name;
    trace;
  }

let pp_label ppf l =
  Format.pp_print_string ppf (match l with V -> "V" | H -> "H" | VH -> "VH")

let pp_labeling ppf l =
  Format.fprintf ppf
    "%s: R=%d C=%d S=%d D=%d (#VH=%d, gamma=%.2f, obj=%.1f%s, %.3fs)"
    l.method_name l.rows l.cols (semiperimeter l) (max_dimension l) l.vh_count
    l.gamma l.objective
    (if l.optimal then ", optimal" else Printf.sprintf ", lb=%.1f" l.lower_bound)
    l.solve_time
