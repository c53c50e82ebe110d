open Functs_tensor

type t =
  | Tensor of Tensor.t
  | Int of int
  | Float of float
  | Bool of bool
  | List of t list

let to_tensor = function
  | Tensor t -> t
  | Int i -> Tensor.scalar (float_of_int i)
  | Float f -> Tensor.scalar f
  | Bool b -> Tensor.scalar (if b then 1.0 else 0.0)
  | List _ -> invalid_arg "Value.to_tensor: list value"

let to_int = function
  | Int i -> i
  | Float f -> int_of_float f
  | Bool b -> if b then 1 else 0
  | Tensor t -> int_of_float (Tensor.item t)
  | List _ -> invalid_arg "Value.to_int: list value"

let to_float = function
  | Float f -> f
  | Int i -> float_of_int i
  | Bool b -> if b then 1.0 else 0.0
  | Tensor t -> Tensor.item t
  | List _ -> invalid_arg "Value.to_float: list value"

let to_bool = function
  | Bool b -> b
  | Int i -> i <> 0
  | Float f -> f <> 0.0
  | Tensor t -> Tensor.item t <> 0.0
  | List _ -> invalid_arg "Value.to_bool: list value"

let rec equal ?(atol = 1e-6) a b =
  match (a, b) with
  | Tensor x, Tensor y -> Tensor.allclose ~atol x y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.abs (x -. y) <= atol
  | Bool x, Bool y -> x = y
  | List x, List y ->
      List.length x = List.length y && List.for_all2 (equal ~atol) x y
  | (Tensor _ | Int _ | Float _ | Bool _ | List _), _ -> false

let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)

let rec bits_equal a b =
  match (a, b) with
  | Tensor x, Tensor y ->
      Shape.equal (Tensor.shape x) (Tensor.shape y)
      &&
      let ok = ref true in
      Tensor.iteri x (fun ix v ->
          if not (same_bits v (Tensor.get y ix)) then ok := false);
      !ok
  | Float x, Float y -> same_bits x y
  | Int x, Int y -> x = y
  | Bool x, Bool y -> x = y
  | List x, List y ->
      List.length x = List.length y && List.for_all2 bits_equal x y
  | (Tensor _ | Int _ | Float _ | Bool _ | List _), _ -> false

let rec pp ppf = function
  | Tensor t -> Tensor.pp ppf t
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | Bool b -> Format.pp_print_bool ppf b
  | List vs ->
      Format.fprintf ppf "[%a]"
        (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf "; ") pp)
        vs

let to_string v = Format.asprintf "%a" pp v
