package stpmbench

import java.security.MessageDigest
import scala.collection.mutable
import repro.core._

/** The output check: SHA-256 over the sorted (pattern key, support,
  * seasons) tuples of a mining result.
  */
object Digest {
  def of(patterns: Seq[FrequentPattern]): String = {
    val md = MessageDigest.getInstance("SHA-256")
    patterns.map { p =>
      s"${p.key.render}|${p.support.mkString(",")}|" +
        p.seasons.map(_.granules.mkString(",")).mkString(";")
    }.sorted.foreach(line => md.update((line + "\n").getBytes("UTF-8")))
    md.digest().map(b => f"${b & 0xff}%02x").mkString
  }
}

/** Deterministic counters of one op's output. They repeat exactly between
  * runs of one build on one dataset; a change means the workload changed,
  * not the machine.
  */
object Counters {
  def of(r: OpResult): mutable.LinkedHashMap[String, Long] = {
    val m = mutable.LinkedHashMap.empty[String, Long]
    val st = r.mining.stats
    m("seqdb.granules") = r.db.size.toLong
    m("seqdb.instances") = r.db.rows.iterator.map(_.instances.size.toLong).sum
    m("seqdb.events") = r.db.allEvents.size.toLong
    m("stpm.frequent") = r.mining.frequent.size.toLong
    m("stpm.candidate_events") = st.candidateEvents.toLong
    m("stpm.total_events") = st.totalEvents.toLong
    for ((k, n) <- st.candidateGroups) m(s"stpm.k$k.groups") = n.toLong
    for ((k, n) <- st.candidatePatterns) m(s"stpm.k$k.patterns") = n.toLong
    m("stpm.rel_checks") = st.relationChecks
    m("stpm.occurrences") = st.occurrences
    m("stpm.peak_entries") = st.peakEntries
    for (a <- r.astpm) {
      m("mi.pairs") = a.allSeries.size.toLong * (a.allSeries.size - 1) / 2
      m("mi.positions") = r.miPositions
      m("mi.correlated_pairs") = a.correlatedPairs.size.toLong
      m("mi.kept_series") = a.keptSeries.size.toLong
    }
    m
  }
}
