(** Runtime values of the interpreter. *)

open Functs_tensor

type t =
  | Tensor of Tensor.t
  | Int of int
  | Float of float
  | Bool of bool
  | List of t list

val to_tensor : t -> Tensor.t
(** Tensors pass through; [Int]/[Float]/[Bool] scalars promote to 0-d
    tensors (mirroring ATen scalar promotion).
    @raise Invalid_argument for lists. *)

val to_int : t -> int
val to_float : t -> float
val to_bool : t -> bool

val equal : ?atol:float -> t -> t -> bool
(** Structural equality; tensors compared with {!Tensor.allclose}. *)

val bits_equal : t -> t -> bool
(** Structural equality with every float — tensor elements and [Float]
    scalars — compared by [Int64.bits_of_float]: NaN payloads and signed
    zeros must match, and tensors must have equal shapes. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
