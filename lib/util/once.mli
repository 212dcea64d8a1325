(** A value computed on first use, at most once, from any domain.

    OCaml 5.1's [Lazy.force] is not domain-safe: a domain forcing a
    suspension that another domain is already forcing raises
    [CamlinternalLazy.Undefined]. A [Once.t] guards the computation with
    a mutex instead, so racing first uses wait for one computation and
    share its result; once computed, {!get} is a single atomic read. *)

type 'a t

val make : (unit -> 'a) -> 'a t
(** [make f] delays [f]; nothing runs before the first {!get}. *)

val get : 'a t -> 'a
(** The value, computed by the first call. Calls racing the first one
    block until it finishes and return the same value. If [f] raises,
    the exception propagates and the next call runs [f] again. *)
