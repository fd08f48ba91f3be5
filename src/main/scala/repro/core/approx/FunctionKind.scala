package repro.core.approx

/** A two-free-parameter function family usable in Theorem 1 of the paper.
  *
  * Each kind linearises the error inequalities `|f(x_k) - y_k| <= eps` into
  * `alpha_k <= t_k * m + b <= omega_k`, where `t_k` is a positive increasing
  * transform of `x_k` and `(m, b)` are (changes of variable of) the two free
  * parameters. We store the fitted `(m, b)` directly as the two encoded
  * parameters — the change of variable (e.g. `b = ln theta2` for the
  * exponential kind) is folded into `eval`, which avoids inverting
  * `phi`/`psi` at encode time and keeps evaluation numerically stable
  * (`exp(m*x + b)` never materialises a huge `theta2 * e^{theta1 x}` pair).
  *
  * Anchored kinds (the 3-parameter quadratic) fix the extra parameter by
  * forcing pass-through of the fragment's first data point and expose it as
  * `param3`. Timestamps are global (`x = 1..n`), so a fitted function is
  * valid on any sub-range of its fragment — exactly what Algorithm 1's
  * prefix/suffix edges require.
  */
sealed trait FunctionKind {
  /** Stable id used in the K string of the compressed layout. */
  def id: Int

  /** Number of stored 64-bit parameters (2, or 3 for anchored kinds). */
  def nParams: Int

  /** Linearised constraint for data point `(x, y)` with bound `eps`: writes
    * `(t, alpha, omega)` into `out(0..2)` and returns
    * [[FunctionKind.Constrained]]. `(x0, y0)` is the fragment's first point
    * (used only by anchored kinds). Returns [[FunctionKind.OutOfDomainPoint]]
    * for a point unconstrainable in this kind's domain (e.g. `y - eps <= 0`
    * for log-space kinds; the caller must end the fragment there) and
    * [[FunctionKind.VacuousPoint]] for an always-satisfied point (the anchor
    * itself). Allocation-free: this is ConvexFit's hot path.
    */
  def constraintInto(x: Double, y: Double, eps: Double, x0: Double, y0: Double,
                     out: Array[Double]): Int

  /** Third stored parameter derived from the anchor; 0 for 2-param kinds. */
  def param3(m: Double, b: Double, x0: Double, y0: Double): Double = 0.0

  /** Evaluate the fitted function at global timestamp x. */
  def eval(x: Double, m: Double, b: Double, p3: Double): Double

  /** The integer that the correction at 0-based index `idx` (x = idx + 1) is
    * stored against: the one rule shared by the encoder (`build`, `repair`)
    * and the decoder (`apply`, `range`). The 1e-9 keeps an exact fit that
    * rounds just below an integer on that integer.
    */
  final def approx(idx: Int, m: Double, b: Double, p3: Double): Long =
    math.floor(eval((idx + 1).toDouble, m, b, p3) + 1e-9).toLong
}

/** f(x) = m*x + b. */
case object LinearKind extends FunctionKind {
  val id = 0
  val nParams = 2
  def constraintInto(x: Double, y: Double, eps: Double, x0: Double, y0: Double,
                     out: Array[Double]): Int = {
    out(0) = x; out(1) = y - eps; out(2) = y + eps
    FunctionKind.Constrained
  }
  def eval(x: Double, m: Double, b: Double, p3: Double): Double = m * x + b
}

/** f(x) = m*sqrt(x) + b (radical). */
case object RadicalKind extends FunctionKind {
  val id = 1
  val nParams = 2
  def constraintInto(x: Double, y: Double, eps: Double, x0: Double, y0: Double,
                     out: Array[Double]): Int = {
    out(0) = math.sqrt(x); out(1) = y - eps; out(2) = y + eps
    FunctionKind.Constrained
  }
  def eval(x: Double, m: Double, b: Double, p3: Double): Double = m * math.sqrt(x) + b
}

/** f(x) = theta2 * e^{theta1 x} fitted in (theta1, ln theta2) space:
  * eval(x) = exp(m*x + b). Requires y - eps > 0 (the encoder shifts the
  * whole series so min(y) >= eps_max + 1, per the paper's footnote 2).
  */
case object ExponentialKind extends FunctionKind {
  val id = 2
  val nParams = 2
  def constraintInto(x: Double, y: Double, eps: Double, x0: Double, y0: Double,
                     out: Array[Double]): Int = {
    if (y - eps <= 0) return FunctionKind.OutOfDomainPoint
    out(0) = x; out(1) = math.log(y - eps); out(2) = math.log(y + eps)
    FunctionKind.Constrained
  }
  def eval(x: Double, m: Double, b: Double, p3: Double): Double = math.exp(m * x + b)
}

/** f(x) = theta1 x^2 + theta2 x + theta3, anchored through the fragment's
  * first point: theta3 = y0 - m*x0^2 - b*x0 (stored explicitly). The
  * linearised constraint for x > x0 is
  * (y - y0 -+ eps)/(x - x0) <= (x + x0) m + b <= (y - y0 + eps)/(x - x0).
  */
case object QuadraticKind extends FunctionKind {
  val id = 3
  val nParams = 3
  def constraintInto(x: Double, y: Double, eps: Double, x0: Double, y0: Double,
                     out: Array[Double]): Int = {
    if (x <= x0) return FunctionKind.VacuousPoint // the anchor point is exact
    val d = x - x0
    out(0) = x + x0; out(1) = (y - y0 - eps) / d; out(2) = (y - y0 + eps) / d
    FunctionKind.Constrained
  }
  override def param3(m: Double, b: Double, x0: Double, y0: Double): Double =
    y0 - m * x0 * x0 - b * x0
  def eval(x: Double, m: Double, b: Double, p3: Double): Double = m * x * x + b * x + p3
}

object FunctionKind {
  /** Return codes of [[FunctionKind.constraintInto]]. */
  final val Constrained = 0
  final val VacuousPoint = 1
  final val OutOfDomainPoint = 2

  /** The four kinds used in the paper's experiments (§IV-A), in id order. */
  val all: Vector[FunctionKind] = Vector(LinearKind, RadicalKind, ExponentialKind, QuadraticKind)
  require(all.indices.forall(i => all(i).id == i), "kind ids must be 0 until all.length, in order")

  /** σ: K's alphabet size and P's number of arrays; kind ids are `0 until sigma`. */
  val sigma: Int = all.length

  private val ById: Array[FunctionKind] = all.toArray

  def byId(id: Int): FunctionKind =
    if (id >= 0 && id < sigma) ById(id)
    else throw new IllegalArgumentException(s"unknown function kind id $id")
}
