package org.apache.spark

/** Access to the listener bus, which Spark keeps package-private. The
  * benchmark reads task metrics only after every event posted so far has
  * reached its listener.
  */
object KcbenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
