package repro

import org.scalacheck.{Prop, Test}
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.Assertions.assert

/** The one scalacheck runner of the test suites: a property runs from a
  * fixed seed, so that every run checks the same cases.
  */
object FixedSeed {

  /** Checks `prop` on `cases` cases drawn from `seed`; a failure fails the
    * calling test with scalacheck's report.
    */
  def check(prop: Prop, seed: Long, cases: Int): Unit = {
    val params = Test.Parameters.default.withMinSuccessfulTests(cases).withInitialSeed(Seed(seed))
    val result = Test.check(params, prop)
    assert(result.passed, Pretty.pretty(Pretty.prettyTestRes(result), Pretty.defaultParams))
  }
}
