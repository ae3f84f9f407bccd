(* Nodes are named by their position in depth-first discovery order
   from the roots, as Preprocess.of_sbdd and Fingerprint.sbdd number
   them, so the text depends on the diagram and not on which handles the
   build happened to allocate. *)
let sbdd (t : Sbdd.t) =
  let buf = Buffer.create 1024 in
  let roots = List.map snd t.roots in
  let order = Manager.reachable t.man roots in
  let id = Array.make (Manager.allocated t.man) 0 in
  List.iteri (fun i n -> id.(n) <- i) order;
  Buffer.add_string buf "digraph bdd {\n  rankdir=TB;\n";
  List.iter
    (fun n ->
       if Manager.is_terminal n then
         Buffer.add_string buf
           (Printf.sprintf "  n%d [shape=box,label=\"%d\"];\n" id.(n) n)
       else begin
         let name = t.input_order.(Manager.level t.man n) in
         Buffer.add_string buf
           (Printf.sprintf "  n%d [shape=circle,label=\"%s\"];\n" id.(n) name);
         Buffer.add_string buf
           (Printf.sprintf "  n%d -> n%d [style=solid];\n" id.(n)
              id.(Manager.high t.man n));
         Buffer.add_string buf
           (Printf.sprintf "  n%d -> n%d [style=dashed];\n" id.(n)
              id.(Manager.low t.man n))
       end)
    order;
  List.iter
    (fun (o, root) ->
       Buffer.add_string buf
         (Printf.sprintf "  out_%s [shape=plaintext,label=\"%s\"];\n" o o);
       Buffer.add_string buf (Printf.sprintf "  out_%s -> n%d;\n" o id.(root)))
    t.roots;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_file path t =
  let oc = open_out path in
  output_string oc (sbdd t);
  close_out oc
