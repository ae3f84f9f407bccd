(* The engine version baked into every cache key.  Bump it whenever a
   change can alter synthesis output for the same function and options
   (solver algorithms, mapping, canonicalisation) — stale entries from
   an older engine then simply miss instead of serving wrong bytes. *)

let engine = "compact-engine/11"
