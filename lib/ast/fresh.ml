(** A supply of fresh identifiers for one kernel rewrite, backed by a
    hash set so a draw costs the same on a 30-statement kernel as on
    the thousands of statements thread merge can produce. *)

type t = {
  used : (string, unit) Hashtbl.t;
  next : (string, int) Hashtbl.t;
      (** per base, the lowest suffix that may still be free: names are
          only ever added, so every lower suffix stays taken *)
}

let create (names : string list) : t =
  let used = Hashtbl.create (2 * List.length names + 16) in
  List.iter (fun n -> Hashtbl.replace used n ()) names;
  { used; next = Hashtbl.create 16 }

let of_kernel (k : Ast.kernel) : t =
  create
    (List.map (fun (p : Ast.param) -> p.p_name) k.k_params
    @ List.map fst (Rewrite.declared_vars k.k_body))

let name (t : t) (base : string) : string =
  let nm =
    if not (Hashtbl.mem t.used base) then base
    else begin
      let i = ref (Option.value (Hashtbl.find_opt t.next base) ~default:0) in
      while Hashtbl.mem t.used (Printf.sprintf "%s_%d" base !i) do
        incr i
      done;
      Hashtbl.replace t.next base (!i + 1);
      Printf.sprintf "%s_%d" base !i
    end
  in
  Hashtbl.replace t.used nm ();
  nm
