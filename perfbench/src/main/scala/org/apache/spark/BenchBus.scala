package org.apache.spark

/** Waits until the listener bus has delivered every queued event, so a
  * listener's counters are complete when read (the bus is asynchronous and
  * its drain method is package-private).
  */
object BenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
