package kcbench

import org.apache.spark.scheduler._
import scala.collection.mutable.ArrayBuffer

/** Records finished tasks and stages; attached for one traced Spark count. */
final class SparkTaskLog extends SparkListener {
  import SparkTaskLog._

  private val tasks = ArrayBuffer.empty[Task]
  private val stages = ArrayBuffer.empty[Stage]

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null)
      tasks += Task(e.stageId, e.taskInfo.duration / 1e3, m.executorRunTime / 1e3,
        m.executorDeserializeTime / 1e3, m.jvmGCTime / 1e3, m.shuffleWriteMetrics.bytesWritten)
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
    val i = e.stageInfo
    val wall = (for (s <- i.submissionTime; c <- i.completionTime) yield (c - s) / 1e3).getOrElse(0.0)
    stages += Stage(i.stageId, wall)
  }

  def snapshot: (Vector[Task], Vector[Stage]) = synchronized { (tasks.toVector, stages.toVector) }
}

object SparkTaskLog {
  final case class Task(stageId: Int, durationS: Double, runS: Double, deserializeS: Double,
                        gcS: Double, shuffleWriteBytes: Long)
  final case class Stage(id: Int, wallS: Double)
}
