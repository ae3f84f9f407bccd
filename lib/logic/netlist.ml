type node = { wire : string; func : Expr.t }

type t = {
  name : string;
  inputs : string list;
  outputs : string list;
  nodes : node list;
}

exception Ill_formed of string

let ill fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let create ~name ~inputs ~outputs nodes =
  let module S = Set.Make (String) in
  let defined = ref (S.of_list inputs) in
  if S.cardinal !defined <> List.length inputs then
    ill "netlist %s: duplicate input name" name;
  List.iter
    (fun n ->
       if S.mem n.wire !defined then ill "netlist %s: wire %s redefined" name n.wire;
       List.iter
         (fun v ->
            if not (S.mem v !defined) then
              ill "netlist %s: node %s uses undefined wire %s" name n.wire v)
         (Expr.vars n.func);
       defined := S.add n.wire !defined)
    nodes;
  List.iter
    (fun o ->
       if not (S.mem o !defined) then ill "netlist %s: output %s is undriven" name o)
    outputs;
  { name; inputs; outputs; nodes }

let n_expr wire func = { wire; func }
let n_and wire ins = { wire; func = Expr.and_ (List.map Expr.var ins) }
let n_or wire ins = { wire; func = Expr.or_ (List.map Expr.var ins) }
let n_nand wire ins = { wire; func = Expr.nand (List.map Expr.var ins) }
let n_nor wire ins = { wire; func = Expr.nor (List.map Expr.var ins) }
let n_xor wire a b = { wire; func = Expr.xor (Expr.var a) (Expr.var b) }
let n_xnor wire a b = { wire; func = Expr.xnor (Expr.var a) (Expr.var b) }
let n_not wire a = { wire; func = Expr.not_ (Expr.var a) }
let n_buf wire a = { wire; func = Expr.var a }

(* The output wire must not shadow an input variable (an expression
   over "f" is legal), so probe f, f0, f1, … deterministically. *)
let of_expr ~name e =
  let inputs = Expr.vars e in
  let rec pick i =
    let w = Printf.sprintf "f%d" i in
    if List.mem w inputs then pick (i + 1) else w
  in
  let out = if List.mem "f" inputs then pick 0 else "f" in
  create ~name ~inputs ~outputs:[ out ] [ n_expr out e ]

let num_inputs t = List.length t.inputs
let num_outputs t = List.length t.outputs
let num_nodes t = List.length t.nodes

let literal_count t =
  List.fold_left (fun acc n -> acc + Expr.size n.func) 0 t.nodes

(* Staged: the first application resolves every wire name to a slot of
   a value array (inputs first, then nodes in order) and compiles each
   node expression to a closure over that array; each point then costs
   one pass over the nodes. *)
let eval_point t =
  let n = List.length t.inputs in
  let slots = Hashtbl.create 64 in
  List.iteri (fun i v -> Hashtbl.replace slots v i) t.inputs;
  let slot v = Hashtbl.find slots v in
  let rec compile = function
    | Expr.Const b -> fun _ -> b
    | Expr.Var v ->
      let i = slot v in
      fun values -> values.(i)
    | Expr.Not e ->
      let f = compile e in
      fun values -> not (f values)
    | Expr.And es ->
      let fs = List.map compile es in
      fun values -> List.for_all (fun f -> f values) fs
    | Expr.Or es ->
      let fs = List.map compile es in
      fun values -> List.exists (fun f -> f values) fs
    | Expr.Xor (a, b) ->
      let fa = compile a and fb = compile b in
      fun values -> fa values <> fb values
  in
  let nodes =
    Array.of_list
      (List.mapi
         (fun k node ->
            let f = compile node.func in
            Hashtbl.replace slots node.wire (n + k);
            f)
         t.nodes)
  in
  let outputs = Array.of_list (List.map slot t.outputs) in
  fun point ->
    let values = Array.make (n + Array.length nodes) false in
    Array.blit point 0 values 0 n;
    Array.iteri (fun k f -> values.(n + k) <- f values) nodes;
    Array.map (fun i -> values.(i)) outputs

let eval t env =
  let values = eval_point t (Array.of_list (List.map env t.inputs)) in
  List.mapi (fun i o -> o, values.(i)) t.outputs

let output_exprs t =
  let defs = Hashtbl.create 64 in
  List.iter
    (fun n ->
       let expanded = Expr.substitute (Hashtbl.find_opt defs) n.func in
       Hashtbl.replace defs n.wire expanded)
    t.nodes;
  List.map
    (fun o ->
       match Hashtbl.find_opt defs o with
       | Some e -> o, e
       | None -> o, Expr.var o (* output is a primary input *))
    t.outputs

let to_truth_table t =
  Truth_table.create ~inputs:t.inputs ~outputs:t.outputs (eval_point t)

let rename t ~prefix =
  let r v = prefix ^ v in
  let rename_expr e =
    Expr.substitute (fun v -> Some (Expr.var (r v))) e
  in
  {
    name = t.name;
    inputs = List.map r t.inputs;
    outputs = List.map r t.outputs;
    nodes = List.map (fun n -> { wire = r n.wire; func = rename_expr n.func }) t.nodes;
  }

let pp_stats ppf t =
  Format.fprintf ppf "%s: %d inputs, %d outputs, %d nodes, %d literals"
    t.name (num_inputs t) (num_outputs t) (num_nodes t) (literal_count t)
