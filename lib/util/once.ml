(** Domain-safe one-time initialization. See the mli. *)

type 'a t = { mutex : Mutex.t; cell : 'a option Atomic.t; init : unit -> 'a }

let make init = { mutex = Mutex.create (); cell = Atomic.make None; init }

let get t =
  match Atomic.get t.cell with
  | Some v -> v
  | None ->
      Mutex.protect t.mutex (fun () ->
          match Atomic.get t.cell with
          | Some v -> v
          | None ->
              let v = t.init () in
              Atomic.set t.cell (Some v);
              v)
