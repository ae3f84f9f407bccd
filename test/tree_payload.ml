(* [Server.Protocol.synth_payload] as it was before the direct writer:
   the design rendered as an [Obs.Json] tree, one three-element array
   per programmed cell, then printed. Kept verbatim as the oracle of
   test_server's payload group: the writer must give the same bytes. *)

module J = Obs.Json

let wire_json = function
  | Crossbar.Design.Row i -> J.Str (Printf.sprintf "r%d" i)
  | Crossbar.Design.Col j -> J.Str (Printf.sprintf "c%d" j)

let design_json d =
  let cells = ref [] in
  Crossbar.Design.iter_programmed d (fun r c lit ->
      cells :=
        J.Arr
          [
            J.Num (float_of_int r);
            J.Num (float_of_int c);
            J.Str (Crossbar.Literal.to_string lit);
          ]
        :: !cells);
  J.Obj
    [
      "rows", J.Num (float_of_int (Crossbar.Design.rows d));
      "cols", J.Num (float_of_int (Crossbar.Design.cols d));
      "input", wire_json (Crossbar.Design.input d);
      ( "outputs",
        J.Arr
          (List.map
             (fun (name, w) -> J.Arr [ J.Str name; wire_json w ])
             (Crossbar.Design.outputs d)) );
      (* iter_programmed's row-major order is the canonical one. *)
      "cells", J.Arr (List.rev !cells);
    ]

let synth_payload ~key ~design ~report =
  Printf.sprintf "\"key\":%s,\"design\":%s,\"report\":%s"
    (J.to_string (J.Str key))
    (J.to_string (design_json design))
    (J.to_string (Server.Protocol.report_json report))
